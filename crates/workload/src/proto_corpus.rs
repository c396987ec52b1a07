//! Fleet-representative protobuf message corpora, HyperProtoBench-style.
//!
//! The paper's validation experiment serializes "identical fleet-wide
//! representative protobuf messages then computes their SHA3 hash"
//! (Section 6.4). This module builds dynamic message schemas spanning the
//! shapes HyperProtoBench identified — flat scalar records, string-heavy
//! logs, nested structures, repeated submessages — and generates seeded
//! corpora over them.

use std::sync::Arc;

use hsdp_rng::Rng;
use hsdp_taxes::protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};

/// Unwraps schema operations that are infallible by construction.
///
/// Every descriptor in this module is a compile-time constant and every
/// `set`/`push` below uses field numbers taken from those same
/// descriptors, so a schema error is a programming bug — the round-trip
/// tests exercise all four shapes.
trait MustSchema<T> {
    fn must(self) -> T;
}

impl<T, E: std::fmt::Debug> MustSchema<T> for Result<T, E> {
    fn must(self) -> T {
        // audit: allow(panic, static schemas and field ids are compile-time constants exercised by the round-trip tests)
        self.expect("static proto schema")
    }
}

impl<T> MustSchema<T> for Option<T> {
    fn must(self) -> T {
        // audit: allow(panic, static schemas and field ids are compile-time constants exercised by the round-trip tests)
        self.expect("static proto schema")
    }
}

/// The message shapes in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageShape {
    /// Flat record of scalar fields (metrics samples).
    FlatScalars,
    /// String-heavy log entry.
    LogEntry,
    /// Nested request with a header submessage.
    NestedRequest,
    /// Repeated-submessage batch (rows in a write batch).
    RepeatedBatch,
}

impl MessageShape {
    /// All shapes.
    pub const ALL: [MessageShape; 4] = [
        MessageShape::FlatScalars,
        MessageShape::LogEntry,
        MessageShape::NestedRequest,
        MessageShape::RepeatedBatch,
    ];
}

/// Builds the descriptor for a shape.
#[must_use]
pub fn descriptor(shape: MessageShape) -> Arc<MessageDescriptor> {
    match shape {
        MessageShape::FlatScalars => Arc::new(
            MessageDescriptor::new(
                "MetricsSample",
                vec![
                    FieldDescriptor::required(1, "timestamp", FieldType::Fixed64),
                    FieldDescriptor::optional(2, "value", FieldType::Double),
                    FieldDescriptor::optional(3, "count", FieldType::Uint64),
                    FieldDescriptor::optional(4, "delta", FieldType::Sint64),
                    FieldDescriptor::optional(5, "valid", FieldType::Bool),
                    FieldDescriptor::optional(6, "shard", FieldType::Fixed32),
                ],
            )
            .must(),
        ),
        MessageShape::LogEntry => Arc::new(
            MessageDescriptor::new(
                "LogEntry",
                vec![
                    FieldDescriptor::required(1, "severity", FieldType::Uint64),
                    FieldDescriptor::required(2, "message", FieldType::String),
                    FieldDescriptor::optional(3, "source_file", FieldType::String),
                    FieldDescriptor::optional(4, "line", FieldType::Uint64),
                    FieldDescriptor::repeated(5, "labels", FieldType::String),
                ],
            )
            .must(),
        ),
        MessageShape::NestedRequest => {
            let header = Arc::new(
                MessageDescriptor::new(
                    "RequestHeader",
                    vec![
                        FieldDescriptor::required(1, "request_id", FieldType::Fixed64),
                        FieldDescriptor::optional(2, "deadline_ms", FieldType::Uint64),
                        FieldDescriptor::optional(3, "caller", FieldType::String),
                    ],
                )
                .must(),
            );
            Arc::new(
                MessageDescriptor::new(
                    "ReadRequest",
                    vec![
                        FieldDescriptor::required(1, "header", FieldType::Message(header)),
                        FieldDescriptor::required(2, "key", FieldType::Bytes),
                        FieldDescriptor::optional(3, "columns", FieldType::Uint64),
                    ],
                )
                .must(),
            )
        }
        MessageShape::RepeatedBatch => {
            let row = Arc::new(
                MessageDescriptor::new(
                    "Row",
                    vec![
                        FieldDescriptor::required(1, "key", FieldType::Bytes),
                        FieldDescriptor::required(2, "value", FieldType::Bytes),
                        FieldDescriptor::optional(3, "timestamp", FieldType::Fixed64),
                    ],
                )
                .must(),
            );
            Arc::new(
                MessageDescriptor::new(
                    "WriteBatch",
                    vec![
                        FieldDescriptor::required(1, "table", FieldType::String),
                        FieldDescriptor::repeated(2, "rows", FieldType::Message(row)),
                    ],
                )
                .must(),
            )
        }
    }
}

/// Generates one message of the given shape.
pub fn generate<R: Rng + ?Sized>(shape: MessageShape, rng: &mut R) -> Message {
    let desc = descriptor(shape);
    let mut msg = Message::new(Arc::clone(&desc));
    match shape {
        MessageShape::FlatScalars => {
            msg.set(1, Value::Fixed64(rng.random())).must();
            msg.set(2, Value::Double(rng.random::<f64>() * 1e6)).must();
            msg.set(3, Value::Uint64(rng.random_range(0..1_000_000)))
                .must();
            msg.set(4, Value::Sint64(rng.random_range(-1000..1000)))
                .must();
            msg.set(5, Value::Bool(rng.random_bool(0.5))).must();
            msg.set(6, Value::Fixed32(rng.random())).must();
        }
        MessageShape::LogEntry => {
            msg.set(1, Value::Uint64(rng.random_range(0..5))).must();
            let words = rng.random_range(5..30);
            let body: Vec<String> = (0..words)
                .map(|i| format!("token{}", (i * 7) % 50))
                .collect();
            msg.set(2, Value::Str(body.join(" "))).must();
            msg.set(
                3,
                Value::Str(format!("src/server/handler{}.cc", rng.random_range(0..20))),
            )
            .must();
            msg.set(4, Value::Uint64(rng.random_range(1..5000))).must();
            for i in 0..rng.random_range(0..4) {
                msg.push(5, Value::Str(format!("label-{i}"))).must();
            }
        }
        MessageShape::NestedRequest => {
            let header_desc = match &desc.field(1).must().ty {
                FieldType::Message(d) => Arc::clone(d),
                // audit: allow(panic, field 1 is declared Message in the static schema above)
                _ => unreachable!("field 1 is a message"),
            };
            let mut header = Message::new(header_desc);
            header.set(1, Value::Fixed64(rng.random())).must();
            header
                .set(2, Value::Uint64(rng.random_range(1..10_000)))
                .must();
            header
                .set(
                    3,
                    Value::Str(format!("service-{}", rng.random_range(0..100))),
                )
                .must();
            msg.set(1, Value::Message(header)).must();
            let key: Vec<u8> = (0..rng.random_range(8..64)).map(|_| rng.random()).collect();
            msg.set(2, Value::Bytes(key)).must();
            msg.set(3, Value::Uint64(rng.random_range(1..32))).must();
        }
        MessageShape::RepeatedBatch => {
            msg.set(1, Value::Str(format!("table-{}", rng.random_range(0..10))))
                .must();
            let row_desc = match &desc.field(2).must().ty {
                FieldType::Message(d) => Arc::clone(d),
                // audit: allow(panic, field 2 is declared Message in the static schema above)
                _ => unreachable!("field 2 is a message"),
            };
            for _ in 0..rng.random_range(1..16) {
                let mut row = Message::new(Arc::clone(&row_desc));
                let key: Vec<u8> = (0..16).map(|_| rng.random()).collect();
                let value: Vec<u8> = (0..rng.random_range(16..256))
                    .map(|_| rng.random())
                    .collect();
                row.set(1, Value::Bytes(key)).must();
                row.set(2, Value::Bytes(value)).must();
                row.set(3, Value::Fixed64(rng.random())).must();
                msg.push(2, Value::Message(row)).must();
            }
        }
    }
    msg
}

/// Generates a mixed corpus of `count` messages cycling through all shapes.
pub fn corpus<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<Message> {
    (0..count)
        .map(|i| generate(MessageShape::ALL[i % MessageShape::ALL.len()], rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> hsdp_rng::StdRng {
        hsdp_rng::StdRng::seed_from_u64(99)
    }

    #[test]
    fn every_shape_roundtrips() {
        let mut rng = rng();
        for shape in MessageShape::ALL {
            let msg = generate(shape, &mut rng);
            let bytes = msg.encode_to_vec();
            assert!(!bytes.is_empty(), "{shape:?}");
            let decoded = Message::decode(descriptor(shape), &bytes).expect("roundtrip");
            assert_eq!(decoded.encode_to_vec(), bytes, "{shape:?}");
        }
    }

    #[test]
    fn corpus_is_mixed_and_sized() {
        let mut rng = rng();
        let msgs = corpus(40, &mut rng);
        assert_eq!(msgs.len(), 40);
        // Message `i` has shape `i % 4`: it decodes under that descriptor
        // to itself, descriptor included.
        for (i, msg) in msgs.iter().enumerate() {
            let shape = MessageShape::ALL[i % MessageShape::ALL.len()];
            let decoded = Message::decode(descriptor(shape), &msg.encode_to_vec());
            assert_eq!(decoded.as_ref(), Ok(msg), "message {i}");
        }
    }

    #[test]
    fn corpus_is_seed_deterministic() {
        let a: Vec<Vec<u8>> = corpus(10, &mut hsdp_rng::StdRng::seed_from_u64(5))
            .iter()
            .map(Message::encode_to_vec)
            .collect();
        let b: Vec<Vec<u8>> = corpus(10, &mut hsdp_rng::StdRng::seed_from_u64(5))
            .iter()
            .map(Message::encode_to_vec)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn nested_request_contains_header() {
        let mut rng = rng();
        let msg = generate(MessageShape::NestedRequest, &mut rng);
        assert!(matches!(msg.get(1), Some(Value::Message(_))));
    }
}
