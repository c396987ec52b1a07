//! A from-scratch protobuf wire-format codec with dynamic messages.
//!
//! Protobuf (de)serialization is the single largest datacenter tax the paper
//! identifies (Figure 5, 20–25% of tax cycles). This module implements the
//! protobuf wire format — varint/zigzag scalars, fixed-width scalars,
//! length-delimited strings/bytes/submessages, tag encoding, unknown-field
//! skipping — and everything protobuf in the repo reads and writes through
//! it:
//!
//! - [`FieldReader`] is the one wire reader. It yields each field of a
//!   message body as `(number, `[`Field`]`)` and checks every declared
//!   length against the bytes left, so hostile input is an error, never an
//!   overflow or an out-of-bounds slice.
//! - [`put_varint`], [`put_fixed64`], [`put_fixed32`] and [`put_bytes`]
//!   are the writers. Each has a size helper that counts the bytes it
//!   appends without writing them ([`fixed64_field_len`],
//!   [`bytes_field_len`], and private ones for varints and fixed32s):
//!   [`Message::encoded_len`] sums them, and Spanner sizes its commit
//!   records with them.
//! - [`Message`] is a *dynamic* message described by a runtime
//!   [`MessageDescriptor`], in the spirit of HyperProtoBench's
//!   fleet-representative message shapes: the modeled protobuf workload
//!   (the Table 8 corpus).
//!
//! The pprof export and the profile-history snapshots are typed codecs over
//! the reader and the writers.
//!
//! # Examples
//!
//! ```
//! use hsdp_taxes::protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};
//! use std::sync::Arc;
//!
//! let desc = Arc::new(MessageDescriptor::new(
//!     "KeyValue",
//!     vec![
//!         FieldDescriptor::required(1, "key", FieldType::String),
//!         FieldDescriptor::optional(2, "value", FieldType::Bytes),
//!     ],
//! )?);
//! let mut msg = Message::new(Arc::clone(&desc));
//! msg.set(1, Value::Str("user:42".into()))?;
//! msg.set(2, Value::Bytes(vec![1, 2, 3]))?;
//!
//! let bytes = msg.encode_to_vec();
//! let decoded = Message::decode(Arc::clone(&desc), &bytes)?;
//! assert_eq!(msg, decoded);
//! # Ok::<(), hsdp_taxes::error::WireError>(())
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::WireError;
use crate::varint::{decode_varint, encode_varint, varint_len, zigzag_decode, zigzag_encode};

/// Maximum protobuf field number.
pub const MAX_FIELD_NUMBER: u64 = (1 << 29) - 1;

/// Maximum message nesting depth accepted by the decoder.
pub const RECURSION_LIMIT: usize = 64;

/// Protobuf wire types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum WireType {
    /// Base-128 varint.
    Varint,
    /// Little-endian 64-bit scalar.
    Fixed64,
    /// Length-prefixed bytes (strings, bytes, submessages).
    LengthDelimited,
    /// Little-endian 32-bit scalar.
    Fixed32,
}

impl WireType {
    /// The on-wire discriminant.
    #[must_use]
    pub fn discriminant(self) -> u8 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::LengthDelimited => 2,
            WireType::Fixed32 => 5,
        }
    }

    /// Parses a discriminant.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownWireType`] for deprecated group types and
    /// reserved values.
    pub fn from_discriminant(bits: u8) -> Result<Self, WireError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(WireError::UnknownWireType { wire_type: other }),
        }
    }
}

/// Encodes a field tag (field number + wire type).
pub(crate) fn encode_tag(field: u32, wire_type: WireType, out: &mut Vec<u8>) {
    encode_varint(
        (u64::from(field) << 3) | u64::from(wire_type.discriminant()),
        out,
    );
}

/// Decodes a field tag, returning `(field, wire type, bytes consumed)`.
/// [`FieldReader`] is its one library caller.
///
/// # Errors
///
/// Propagates varint errors; rejects field number 0 and numbers above the
/// protobuf maximum.
pub(crate) fn decode_tag(buf: &[u8]) -> Result<(u32, WireType, usize), WireError> {
    let (raw, consumed) = decode_varint(buf)?;
    let field = raw >> 3;
    if field == 0 || field > MAX_FIELD_NUMBER {
        return Err(WireError::InvalidFieldNumber { field });
    }
    let wire_type = WireType::from_discriminant((raw & 0x7) as u8)?;
    Ok((field as u32, wire_type, consumed))
}

/// Appends a varint field.
pub fn put_varint(field: u32, value: u64, out: &mut Vec<u8>) {
    encode_tag(field, WireType::Varint, out);
    encode_varint(value, out);
}

/// Appends a 64-bit little-endian field (`fixed64`, or a `double`'s bits).
pub fn put_fixed64(field: u32, value: u64, out: &mut Vec<u8>) {
    encode_tag(field, WireType::Fixed64, out);
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a 32-bit little-endian field (`fixed32`, or a `float`'s bits).
pub fn put_fixed32(field: u32, value: u32, out: &mut Vec<u8>) {
    encode_tag(field, WireType::Fixed32, out);
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-delimited field: a string, bytes, an encoded
/// submessage or a packed run.
pub fn put_bytes(field: u32, payload: &[u8], out: &mut Vec<u8>) {
    put_len(field, payload.len(), out);
    out.extend_from_slice(payload);
}

/// The tag and length of a length-delimited field whose `len`-byte payload
/// the caller appends next.
fn put_len(field: u32, len: usize, out: &mut Vec<u8>) {
    encode_tag(field, WireType::LengthDelimited, out);
    encode_varint(len as u64, out);
}

/// The bytes [`put_varint`] appends for `value` on field `field`.
fn varint_field_len(field: u32, value: u64) -> usize {
    tag_len(field) + varint_len(value)
}

/// The bytes [`put_fixed64`] appends on field `field`.
#[must_use]
pub fn fixed64_field_len(field: u32) -> usize {
    tag_len(field) + 8
}

/// The bytes [`put_fixed32`] appends on field `field`.
fn fixed32_field_len(field: u32) -> usize {
    tag_len(field) + 4
}

/// The bytes [`put_bytes`] appends for a `len`-byte payload on field
/// `field`.
#[must_use]
pub fn bytes_field_len(field: u32, len: usize) -> usize {
    tag_len(field) + varint_len(len as u64) + len
}

/// The bytes of a field tag: the wire type takes the low three bits.
fn tag_len(field: u32) -> usize {
    varint_len(u64::from(field) << 3)
}

/// One field's payload, as the wire carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field<'a> {
    /// A varint (wire type 0), as its raw 64 bits: sign and zigzag are the
    /// schema's to apply.
    Varint(u64),
    /// A little-endian 64-bit word (wire type 1).
    Fixed64(u64),
    /// A little-endian 32-bit word (wire type 5).
    Fixed32(u32),
    /// A length-delimited payload (wire type 2).
    Bytes(&'a [u8]),
}

/// Streams `(field number, payload)` pairs off a message body: the one
/// protobuf wire reader.
///
/// A declared length is compared with the bytes left, never added to an
/// offset, so a length near `u64::MAX` is [`WireError::TruncatedField`]
/// like any other that runs past the end. Unknown fields are the caller's
/// to skip: it matches on the numbers and payloads it knows.
#[derive(Debug, Clone)]
pub struct FieldReader<'a> {
    rest: &'a [u8],
}

impl<'a> FieldReader<'a> {
    /// A reader over one message body.
    #[must_use]
    pub fn new(body: &'a [u8]) -> Self {
        FieldReader { rest: body }
    }

    /// The next field, or `None` at the end of the body.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for a bad tag, a malformed varint, or a
    /// payload that runs past the end of the body.
    pub fn next_field(&mut self) -> Result<Option<(u32, Field<'a>)>, WireError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let (field, wire_type, tag_len) = decode_tag(self.rest)?;
        let rest = &self.rest[tag_len..];
        let truncated = WireError::TruncatedField { field };
        let (payload, rest) = match wire_type {
            WireType::Varint => {
                let (value, n) = decode_varint(rest)?;
                (Field::Varint(value), &rest[n..])
            }
            WireType::Fixed64 => {
                let (word, rest) = rest.split_first_chunk().ok_or(truncated)?;
                (Field::Fixed64(u64::from_le_bytes(*word)), rest)
            }
            WireType::Fixed32 => {
                let (word, rest) = rest.split_first_chunk().ok_or(truncated)?;
                (Field::Fixed32(u32::from_le_bytes(*word)), rest)
            }
            WireType::LengthDelimited => {
                let (len, n) = decode_varint(rest)?;
                let (bytes, rest) = usize::try_from(len)
                    .ok()
                    .and_then(|len| rest[n..].split_at_checked(len))
                    .ok_or(truncated)?;
                (Field::Bytes(bytes), rest)
            }
        };
        self.rest = rest;
        Ok(Some((field, payload)))
    }
}

/// Field value types understood by the codec.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldType {
    /// Unsigned varint (`uint64`/`uint32`).
    Uint64,
    /// Two's-complement varint (`int64`/`int32`).
    Int64,
    /// ZigZag varint (`sint64`/`sint32`).
    Sint64,
    /// Varint-encoded boolean.
    Bool,
    /// 64-bit little-endian unsigned (`fixed64`).
    Fixed64,
    /// IEEE-754 double.
    Double,
    /// 32-bit little-endian unsigned (`fixed32`).
    Fixed32,
    /// IEEE-754 float.
    Float,
    /// UTF-8 string.
    String,
    /// Raw bytes.
    Bytes,
    /// A nested message with the given descriptor.
    Message(Arc<MessageDescriptor>),
}

impl FieldType {
    /// Human-readable type name (for errors).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FieldType::Uint64 => "uint64",
            FieldType::Int64 => "int64",
            FieldType::Sint64 => "sint64",
            FieldType::Bool => "bool",
            FieldType::Fixed64 => "fixed64",
            FieldType::Double => "double",
            FieldType::Fixed32 => "fixed32",
            FieldType::Float => "float",
            FieldType::String => "string",
            FieldType::Bytes => "bytes",
            FieldType::Message(_) => "message",
        }
    }
}

/// A field in a message schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDescriptor {
    /// Field number (1..=2^29-1).
    pub number: u32,
    /// Field name.
    pub name: String,
    /// Value type.
    pub ty: FieldType,
    /// Whether multiple values are allowed.
    pub repeated: bool,
    /// Whether the field must be present after decode.
    pub required: bool,
}

impl FieldDescriptor {
    /// An optional singular field.
    #[must_use]
    pub fn optional(number: u32, name: &str, ty: FieldType) -> Self {
        FieldDescriptor {
            number,
            name: name.to_owned(),
            ty,
            repeated: false,
            required: false,
        }
    }

    /// A required singular field.
    #[must_use]
    pub fn required(number: u32, name: &str, ty: FieldType) -> Self {
        FieldDescriptor {
            number,
            name: name.to_owned(),
            ty,
            repeated: false,
            required: true,
        }
    }

    /// A repeated field.
    #[must_use]
    pub fn repeated(number: u32, name: &str, ty: FieldType) -> Self {
        FieldDescriptor {
            number,
            name: name.to_owned(),
            ty,
            repeated: true,
            required: false,
        }
    }
}

/// A message schema: an ordered set of field descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageDescriptor {
    name: String,
    fields: Vec<FieldDescriptor>,
    by_number: BTreeMap<u32, usize>,
}

impl MessageDescriptor {
    /// Builds a descriptor, validating field numbers.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidFieldNumber`] for zero/out-of-range or
    /// duplicate field numbers.
    pub fn new(name: &str, fields: Vec<FieldDescriptor>) -> Result<Self, WireError> {
        let mut by_number = BTreeMap::new();
        for (idx, field) in fields.iter().enumerate() {
            if field.number == 0 || u64::from(field.number) > MAX_FIELD_NUMBER {
                return Err(WireError::InvalidFieldNumber {
                    field: u64::from(field.number),
                });
            }
            if by_number.insert(field.number, idx).is_some() {
                return Err(WireError::InvalidFieldNumber {
                    field: u64::from(field.number),
                });
            }
        }
        Ok(MessageDescriptor {
            name: name.to_owned(),
            fields,
            by_number,
        })
    }

    /// The message name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields, in declaration order.
    #[must_use]
    pub fn fields(&self) -> &[FieldDescriptor] {
        &self.fields
    }

    /// Looks up a field by number.
    #[must_use]
    pub fn field(&self, number: u32) -> Option<&FieldDescriptor> {
        self.by_number.get(&number).map(|&idx| &self.fields[idx])
    }
}

/// A dynamic field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `uint64`.
    Uint64(u64),
    /// `int64`.
    Int64(i64),
    /// `sint64` (zigzag).
    Sint64(i64),
    /// `bool`.
    Bool(bool),
    /// `fixed64`.
    Fixed64(u64),
    /// `double`.
    Double(f64),
    /// `fixed32`.
    Fixed32(u32),
    /// `float`.
    Float(f32),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Nested message.
    Message(Message),
}

impl Value {
    fn matches(&self, ty: &FieldType) -> bool {
        matches!(
            (self, ty),
            (Value::Uint64(_), FieldType::Uint64)
                | (Value::Int64(_), FieldType::Int64)
                | (Value::Sint64(_), FieldType::Sint64)
                | (Value::Bool(_), FieldType::Bool)
                | (Value::Fixed64(_), FieldType::Fixed64)
                | (Value::Double(_), FieldType::Double)
                | (Value::Fixed32(_), FieldType::Fixed32)
                | (Value::Float(_), FieldType::Float)
                | (Value::Str(_), FieldType::String)
                | (Value::Bytes(_), FieldType::Bytes)
                | (Value::Message(_), FieldType::Message(_))
        )
    }
}

/// A dynamic protobuf message: a descriptor plus field values.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    descriptor: Arc<MessageDescriptor>,
    values: BTreeMap<u32, Vec<Value>>,
}

impl Message {
    /// An empty message of the given schema.
    #[must_use]
    pub fn new(descriptor: Arc<MessageDescriptor>) -> Self {
        Message {
            descriptor,
            values: BTreeMap::new(),
        }
    }

    /// Sets a singular field (replacing any existing value).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidFieldNumber`] for fields not in the schema
    /// and [`WireError::TypeMismatch`] for wrongly-typed values.
    pub fn set(&mut self, number: u32, value: Value) -> Result<(), WireError> {
        self.check(number, &value)?;
        self.values.insert(number, vec![value]);
        Ok(())
    }

    /// Appends a value to a repeated field.
    ///
    /// # Errors
    ///
    /// Same as [`Message::set`].
    pub fn push(&mut self, number: u32, value: Value) -> Result<(), WireError> {
        self.check(number, &value)?;
        self.values.entry(number).or_default().push(value);
        Ok(())
    }

    fn check(&self, number: u32, value: &Value) -> Result<(), WireError> {
        let field = self
            .descriptor
            .field(number)
            .ok_or(WireError::InvalidFieldNumber {
                field: u64::from(number),
            })?;
        if !value.matches(&field.ty) {
            return Err(WireError::TypeMismatch {
                field: number,
                expected: field.ty.name(),
            });
        }
        Ok(())
    }

    /// The first value of a field, if present.
    #[must_use]
    pub fn get(&self, number: u32) -> Option<&Value> {
        self.values.get(&number).and_then(|v| v.first())
    }

    /// Number of set fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no field is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The exact encoded size in bytes, without encoding.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let mut len = 0;
        for (&number, values) in &self.values {
            for value in values {
                len += field_len(number, value);
            }
        }
        len
    }

    /// Serializes the message to the wire format, appending to `out`.
    ///
    /// Reserves the exact [`Message::encoded_len`] up front, so the whole
    /// message — nested submessages included — is written through a single
    /// pre-sized buffer with no intermediate reallocation.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        self.encode_raw(out);
    }

    /// The recursive encoding body. Capacity is reserved once at the top
    /// (by [`Message::encode`] / [`Message::encode_to_vec`]); nested
    /// messages append directly without re-walking their sizes for a
    /// redundant reserve.
    fn encode_raw(&self, out: &mut Vec<u8>) {
        for (&number, values) in &self.values {
            for value in values {
                encode_value(number, value, out);
            }
        }
    }

    /// Serializes to a fresh buffer of exactly [`Message::encoded_len`]
    /// bytes — after encoding, `capacity == len` (no reallocation, no slack).
    #[must_use]
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_raw(&mut out);
        out
    }

    /// Parses a message of the given schema from `buf`.
    ///
    /// Unknown fields are skipped per their wire type, as protobuf requires.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input, type conflicts with the
    /// schema, missing required fields, or nesting beyond
    /// [`RECURSION_LIMIT`].
    pub fn decode(descriptor: Arc<MessageDescriptor>, buf: &[u8]) -> Result<Self, WireError> {
        Self::decode_at_depth(descriptor, buf, 0)
    }

    fn decode_at_depth(
        descriptor: Arc<MessageDescriptor>,
        buf: &[u8],
        depth: usize,
    ) -> Result<Self, WireError> {
        if depth > RECURSION_LIMIT {
            return Err(WireError::RecursionLimit);
        }
        let mut message = Message::new(Arc::clone(&descriptor));
        let mut fields = FieldReader::new(buf);
        while let Some((number, field)) = fields.next_field()? {
            let Some(known) = descriptor.field(number) else {
                continue;
            };
            let value = match (&known.ty, field) {
                (FieldType::Uint64, Field::Varint(v)) => Value::Uint64(v),
                (FieldType::Int64, Field::Varint(v)) => Value::Int64(v as i64),
                (FieldType::Sint64, Field::Varint(v)) => Value::Sint64(zigzag_decode(v)),
                (FieldType::Bool, Field::Varint(v)) => Value::Bool(v != 0),
                (FieldType::Fixed64, Field::Fixed64(v)) => Value::Fixed64(v),
                (FieldType::Double, Field::Fixed64(v)) => Value::Double(f64::from_bits(v)),
                (FieldType::Fixed32, Field::Fixed32(v)) => Value::Fixed32(v),
                (FieldType::Float, Field::Fixed32(v)) => Value::Float(f32::from_bits(v)),
                (FieldType::String, Field::Bytes(b)) => Value::Str(
                    std::str::from_utf8(b)
                        .map_err(|_| WireError::InvalidUtf8 { field: number })?
                        .to_owned(),
                ),
                (FieldType::Bytes, Field::Bytes(b)) => Value::Bytes(b.to_vec()),
                (FieldType::Message(inner), Field::Bytes(b)) => {
                    Value::Message(Message::decode_at_depth(Arc::clone(inner), b, depth + 1)?)
                }
                // A known field arriving with an unexpected wire type is
                // skipped, like an unknown one.
                _ => continue,
            };
            message.values.entry(number).or_default().push(value);
        }
        for field in descriptor.fields() {
            if field.required && !message.values.contains_key(&field.number) {
                return Err(WireError::MissingField {
                    field: field.number,
                });
            }
        }
        Ok(message)
    }
}

/// The bytes [`encode_value`] appends, from the writers' size helpers.
fn field_len(number: u32, value: &Value) -> usize {
    match value {
        Value::Uint64(v) => varint_field_len(number, *v),
        Value::Int64(v) => varint_field_len(number, *v as u64),
        Value::Sint64(v) => varint_field_len(number, zigzag_encode(*v)),
        Value::Bool(v) => varint_field_len(number, u64::from(*v)),
        Value::Fixed64(_) | Value::Double(_) => fixed64_field_len(number),
        Value::Fixed32(_) | Value::Float(_) => fixed32_field_len(number),
        Value::Str(s) => bytes_field_len(number, s.len()),
        Value::Bytes(b) => bytes_field_len(number, b.len()),
        Value::Message(m) => bytes_field_len(number, m.encoded_len()),
    }
}

fn encode_value(number: u32, value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Uint64(v) => put_varint(number, *v, out),
        Value::Int64(v) => put_varint(number, *v as u64, out),
        Value::Sint64(v) => put_varint(number, zigzag_encode(*v), out),
        Value::Bool(v) => put_varint(number, u64::from(*v), out),
        Value::Fixed64(v) => put_fixed64(number, *v, out),
        Value::Double(v) => put_fixed64(number, v.to_bits(), out),
        Value::Fixed32(v) => put_fixed32(number, *v, out),
        Value::Float(v) => put_fixed32(number, v.to_bits(), out),
        Value::Str(s) => put_bytes(number, s.as_bytes(), out),
        Value::Bytes(b) => put_bytes(number, b, out),
        Value::Message(m) => {
            put_len(number, m.encoded_len(), out);
            m.encode_raw(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_desc() -> Arc<MessageDescriptor> {
        Arc::new(
            MessageDescriptor::new(
                "Simple",
                vec![
                    FieldDescriptor::optional(1, "id", FieldType::Uint64),
                    FieldDescriptor::optional(2, "name", FieldType::String),
                    FieldDescriptor::optional(3, "score", FieldType::Double),
                    FieldDescriptor::repeated(4, "tags", FieldType::Sint64),
                    FieldDescriptor::optional(5, "active", FieldType::Bool),
                    FieldDescriptor::optional(6, "blob", FieldType::Bytes),
                    FieldDescriptor::optional(7, "ts32", FieldType::Fixed32),
                    FieldDescriptor::optional(8, "ts64", FieldType::Fixed64),
                    FieldDescriptor::optional(9, "ratio", FieldType::Float),
                    FieldDescriptor::optional(10, "delta", FieldType::Int64),
                ],
            )
            .unwrap(),
        )
    }

    fn filled_simple() -> Message {
        let mut m = Message::new(simple_desc());
        m.set(1, Value::Uint64(42)).unwrap();
        m.set(2, Value::Str("hello".into())).unwrap();
        m.set(3, Value::Double(2.5)).unwrap();
        m.push(4, Value::Sint64(-7)).unwrap();
        m.push(4, Value::Sint64(900)).unwrap();
        m.set(5, Value::Bool(true)).unwrap();
        m.set(6, Value::Bytes(vec![0, 255, 128])).unwrap();
        m.set(7, Value::Fixed32(0xdead_beef)).unwrap();
        m.set(8, Value::Fixed64(0x0123_4567_89ab_cdef)).unwrap();
        m.set(9, Value::Float(-1.5)).unwrap();
        m.set(10, Value::Int64(-3)).unwrap();
        m
    }

    #[test]
    fn scalar_roundtrip() {
        let m = filled_simple();
        let bytes = m.encode_to_vec();
        assert_eq!(bytes.len(), m.encoded_len());
        let decoded = Message::decode(simple_desc(), &bytes).unwrap();
        assert_eq!(m, decoded);
    }

    #[test]
    fn encode_to_vec_allocates_exactly_once() {
        // The buffer must be sized by encoded_len() up front: after encoding,
        // capacity equals length — proof that no growth reallocation (which
        // would over-allocate) ever happened, including for nested messages.
        let inner = filled_simple();
        let outer_desc = Arc::new(
            MessageDescriptor::new(
                "Outer",
                vec![
                    FieldDescriptor::optional(1, "a", FieldType::Message(simple_desc())),
                    FieldDescriptor::repeated(2, "b", FieldType::Message(simple_desc())),
                ],
            )
            .unwrap(),
        );
        let mut outer = Message::new(outer_desc);
        outer.set(1, Value::Message(inner.clone())).unwrap();
        for _ in 0..5 {
            outer.push(2, Value::Message(inner.clone())).unwrap();
        }
        for msg in [&inner, &outer] {
            let bytes = msg.encode_to_vec();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(
                bytes.capacity(),
                bytes.len(),
                "encode_to_vec must allocate exactly encoded_len() bytes"
            );
        }
        // The appending form reserves the same exact amount on an empty buffer.
        let mut buf = Vec::new();
        outer.encode(&mut buf);
        assert_eq!(buf.capacity(), outer.encoded_len());
    }

    #[test]
    fn known_wire_encoding_field1_varint() {
        // Field 1, varint, value 150 -> 08 96 01 (protobuf docs example).
        let desc = Arc::new(
            MessageDescriptor::new(
                "T",
                vec![FieldDescriptor::optional(1, "a", FieldType::Uint64)],
            )
            .unwrap(),
        );
        let mut m = Message::new(desc);
        m.set(1, Value::Uint64(150)).unwrap();
        assert_eq!(m.encode_to_vec(), vec![0x08, 0x96, 0x01]);
    }

    #[test]
    fn known_wire_encoding_string() {
        // Field 2, string "testing" -> 12 07 74 65 73 74 69 6e 67.
        let desc = Arc::new(
            MessageDescriptor::new(
                "T",
                vec![FieldDescriptor::optional(2, "b", FieldType::String)],
            )
            .unwrap(),
        );
        let mut m = Message::new(desc);
        m.set(2, Value::Str("testing".into())).unwrap();
        assert_eq!(
            m.encode_to_vec(),
            vec![0x12, 0x07, 0x74, 0x65, 0x73, 0x74, 0x69, 0x6e, 0x67]
        );
    }

    #[test]
    fn nested_message_roundtrip() {
        let inner_desc = simple_desc();
        let outer_desc = Arc::new(
            MessageDescriptor::new(
                "Outer",
                vec![
                    FieldDescriptor::required(
                        1,
                        "inner",
                        FieldType::Message(Arc::clone(&inner_desc)),
                    ),
                    FieldDescriptor::repeated(
                        2,
                        "many",
                        FieldType::Message(Arc::clone(&inner_desc)),
                    ),
                ],
            )
            .unwrap(),
        );
        let mut outer = Message::new(Arc::clone(&outer_desc));
        outer.set(1, Value::Message(filled_simple())).unwrap();
        outer.push(2, Value::Message(filled_simple())).unwrap();
        outer
            .push(2, Value::Message(Message::new(simple_desc())))
            .unwrap();
        let bytes = outer.encode_to_vec();
        let decoded = Message::decode(outer_desc, &bytes).unwrap();
        assert_eq!(outer, decoded);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        // Encode with the full schema, decode with a narrower one.
        let m = filled_simple();
        let bytes = m.encode_to_vec();
        let narrow = Arc::new(
            MessageDescriptor::new(
                "Narrow",
                vec![FieldDescriptor::optional(2, "name", FieldType::String)],
            )
            .unwrap(),
        );
        let decoded = Message::decode(narrow, &bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded.get(2), Some(&Value::Str("hello".into())));
    }

    #[test]
    fn missing_required_field_fails() {
        let desc = Arc::new(
            MessageDescriptor::new(
                "R",
                vec![FieldDescriptor::required(1, "must", FieldType::Uint64)],
            )
            .unwrap(),
        );
        let err = Message::decode(desc, &[]).unwrap_err();
        assert_eq!(err, WireError::MissingField { field: 1 });
    }

    #[test]
    fn type_mismatch_on_set() {
        let mut m = Message::new(simple_desc());
        let err = m.set(1, Value::Str("oops".into())).unwrap_err();
        assert!(matches!(err, WireError::TypeMismatch { field: 1, .. }));
        let err = m.set(99, Value::Uint64(0)).unwrap_err();
        assert!(matches!(err, WireError::InvalidFieldNumber { field: 99 }));
    }

    #[test]
    fn wire_type_conflict_is_skipped_not_error() {
        // Field 1 encoded as a string but schema says varint: skipped.
        let str_desc = Arc::new(
            MessageDescriptor::new(
                "S",
                vec![FieldDescriptor::optional(1, "s", FieldType::String)],
            )
            .unwrap(),
        );
        let mut m = Message::new(str_desc);
        m.set(1, Value::Str("x".into())).unwrap();
        let bytes = m.encode_to_vec();
        let decoded = Message::decode(simple_desc(), &bytes).unwrap();
        assert!(decoded.get(1).is_none());
    }

    #[test]
    fn truncated_inputs_fail_cleanly() {
        let m = filled_simple();
        let bytes = m.encode_to_vec();
        // Every strict prefix either decodes to fewer fields or errors, but
        // never panics.
        for cut in 0..bytes.len() {
            let _ = Message::decode(simple_desc(), &bytes[..cut]);
        }
        // A length-delimited field whose declared length exceeds the buffer.
        let bad = vec![0x12, 0x0a, b'x'];
        assert!(matches!(
            Message::decode(simple_desc(), &bad).unwrap_err(),
            WireError::TruncatedField { field: 2 }
        ));
    }

    #[test]
    fn lengths_that_overflow_an_offset_are_truncation() {
        // A length of 2^64 - 1 after a one-byte tag: added to the offset it
        // would wrap, so it must be compared with the bytes left instead.
        let blob = Arc::new(
            MessageDescriptor::new(
                "Blob",
                vec![FieldDescriptor::optional(1, "blob", FieldType::Bytes)],
            )
            .unwrap(),
        );
        for (tag, field) in [(0x0a, 1), (0x12, 2)] {
            let mut bytes = vec![tag];
            bytes.extend([0xff; 9]);
            bytes.push(0x01);
            assert_eq!(
                Message::decode(Arc::clone(&blob), &bytes),
                Err(WireError::TruncatedField { field }),
                "field {field}"
            );
        }
    }

    #[test]
    fn reader_yields_what_the_writers_wrote() {
        let mut bytes = Vec::new();
        put_varint(1, 300, &mut bytes);
        put_fixed64(2, 0x0123_4567_89ab_cdef, &mut bytes);
        put_fixed32(3, 0xdead_beef, &mut bytes);
        put_bytes(4, b"abc", &mut bytes);
        put_bytes(1 << 20, b"", &mut bytes);
        let mut fields = FieldReader::new(&bytes);
        let mut got = Vec::new();
        while let Some(field) = fields.next_field().unwrap() {
            got.push(field);
        }
        assert_eq!(
            got,
            [
                (1, Field::Varint(300)),
                (2, Field::Fixed64(0x0123_4567_89ab_cdef)),
                (3, Field::Fixed32(0xdead_beef)),
                (4, Field::Bytes(b"abc")),
                (1 << 20, Field::Bytes(b"")),
            ]
        );
        // Every strict prefix that cuts a field is an error, never a panic.
        let ends = [3, 12, 17, 22, bytes.len()];
        for cut in 1..bytes.len() {
            let mut fields = FieldReader::new(&bytes[..cut]);
            let read = std::iter::from_fn(|| fields.next_field().transpose())
                .collect::<Result<Vec<_>, _>>();
            assert_eq!(read.is_ok(), ends.contains(&cut), "cut {cut}");
        }
    }

    #[test]
    fn size_helpers_count_what_the_writers_append() {
        let fields = [1, 15, 16, 2047, 2048, MAX_FIELD_NUMBER as u32];
        let lens = [0usize, 127, 128, 16_383, 16_384];
        for field in fields {
            let appended = |put: &dyn Fn(&mut Vec<u8>)| {
                let mut out = vec![0xaa];
                put(&mut out);
                out.len() - 1
            };
            for value in lens.map(|len| len as u64).into_iter().chain([u64::MAX]) {
                assert_eq!(
                    varint_field_len(field, value),
                    appended(&|out| put_varint(field, value, out)),
                    "varint field {field} value {value}"
                );
            }
            assert_eq!(
                fixed64_field_len(field),
                appended(&|out| put_fixed64(field, u64::MAX, out)),
                "fixed64 field {field}"
            );
            assert_eq!(
                fixed32_field_len(field),
                appended(&|out| put_fixed32(field, u32::MAX, out)),
                "fixed32 field {field}"
            );
            for len in lens {
                let payload = vec![0x5a; len];
                assert_eq!(
                    bytes_field_len(field, len),
                    appended(&|out| put_bytes(field, &payload, out)),
                    "bytes field {field} len {len}"
                );
            }
        }
    }

    #[test]
    fn invalid_utf8_string_fails() {
        let bad = vec![0x12, 0x02, 0xff, 0xfe];
        assert_eq!(
            Message::decode(simple_desc(), &bad).unwrap_err(),
            WireError::InvalidUtf8 { field: 2 }
        );
    }

    #[test]
    fn recursion_limit_enforced() {
        // Build a self-nesting descriptor chain deeper than the limit.
        let leaf = Arc::new(
            MessageDescriptor::new(
                "Leaf",
                vec![FieldDescriptor::optional(1, "v", FieldType::Uint64)],
            )
            .unwrap(),
        );
        let mut desc = leaf;
        for _ in 0..(RECURSION_LIMIT + 2) {
            desc = Arc::new(
                MessageDescriptor::new(
                    "Nest",
                    vec![FieldDescriptor::optional(
                        1,
                        "inner",
                        FieldType::Message(desc),
                    )],
                )
                .unwrap(),
            );
        }
        // Hand-construct deeply nested bytes: each level is tag 0x0a + len.
        let mut bytes = vec![0x08, 0x01];
        for _ in 0..(RECURSION_LIMIT + 2) {
            let mut outer = vec![0x0a];
            encode_varint(bytes.len() as u64, &mut outer);
            outer.extend_from_slice(&bytes);
            bytes = outer;
        }
        assert_eq!(
            Message::decode(desc, &bytes).unwrap_err(),
            WireError::RecursionLimit
        );
    }

    #[test]
    fn descriptor_rejects_bad_field_numbers() {
        assert!(MessageDescriptor::new(
            "Bad",
            vec![FieldDescriptor::optional(0, "zero", FieldType::Bool)]
        )
        .is_err());
        assert!(MessageDescriptor::new(
            "Dup",
            vec![
                FieldDescriptor::optional(1, "a", FieldType::Bool),
                FieldDescriptor::optional(1, "b", FieldType::Bool),
            ]
        )
        .is_err());
    }

    #[test]
    fn tag_roundtrip() {
        for field in [1u32, 15, 16, 2047, 1 << 20] {
            for wt in [
                WireType::Varint,
                WireType::Fixed64,
                WireType::LengthDelimited,
                WireType::Fixed32,
            ] {
                let mut buf = Vec::new();
                encode_tag(field, wt, &mut buf);
                let (f, w, n) = decode_tag(&buf).unwrap();
                assert_eq!((f, w, n), (field, wt, buf.len()));
            }
        }
        assert!(decode_tag(&[0x00]).is_err(), "field 0 rejected");
        assert!(decode_tag(&[0x03]).is_err(), "group wire type rejected");
    }
}
