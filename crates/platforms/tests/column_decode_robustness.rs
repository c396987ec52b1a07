//! Adversarial-input suite for the column decoder.
//!
//! A column's value count and each string's length are read from the
//! input. Decoding must never allocate on their say-so or overflow an
//! offset computed from them: hostile headers, every truncation of a valid
//! encoding and seeded single-byte corruptions all return, never panic.

use hsdp_platforms::columnar::{Column, ColumnError, ColumnTable, FACT_COLUMNS};
use hsdp_rng::{Rng, StdRng};
use hsdp_workload::rows::FactGen;

/// Valid encodings of every column type: hand-picked edge values, empty
/// columns, and the fact-table columns of generated rows.
fn valid_encodings() -> Vec<Vec<u8>> {
    let mut columns = vec![
        Column::Int64(vec![-5, 0, 7, i64::MAX, i64::MIN]),
        Column::Float64(vec![1.5, -2.25, f64::INFINITY]),
        Column::Str(vec!["a".into(), String::new(), "日本語".into()]),
        Column::Bool(vec![
            true, false, true, true, false, false, true, true, false,
        ]),
        Column::U32(vec![0, 1, u32::MAX]),
        Column::Int64(vec![]),
        Column::Float64(vec![]),
        Column::Str(vec![]),
        Column::Bool(vec![]),
        Column::U32(vec![]),
    ];
    let mut rng = StdRng::seed_from_u64(0xC01);
    let rows = FactGen::default().rows(40, &mut rng);
    let table = ColumnTable::from_rows(&rows);
    columns.extend((0..FACT_COLUMNS.len()).map(|i| table.column(i).clone()));
    columns.iter().map(Column::encode).collect()
}

#[test]
fn hostile_counts_and_lengths_are_rejected() {
    // A count of 2^62 values behind each type tag.
    for tag in 0..=4u8 {
        let mut huge = vec![tag];
        huge.extend([0x80; 8]);
        huge.push(0x40);
        assert!(
            matches!(Column::decode(&huge), Err(ColumnError::Malformed(_))),
            "tag {tag}: a 2^62-value count must be rejected"
        );
    }
    // One string whose length is u64::MAX.
    let mut long_str = vec![2, 1];
    long_str.extend([0xff; 9]);
    long_str.push(0x01);
    assert!(matches!(
        Column::decode(&long_str),
        Err(ColumnError::Malformed(_))
    ));
}

#[test]
fn every_truncation_of_a_valid_encoding_errors() {
    for encoded in valid_encodings() {
        assert!(Column::decode(&encoded).is_ok());
        for cut in 0..encoded.len() {
            assert!(
                Column::decode(&encoded[..cut]).is_err(),
                "prefix {cut} of {encoded:?} must fail"
            );
        }
    }
}

#[test]
fn single_byte_corruptions_return() {
    let mut rng = StdRng::seed_from_u64(0xBAD_C01);
    for encoded in valid_encodings() {
        for _ in 0..200 {
            let mut corrupt = encoded.clone();
            let at = rng.random_range(0..corrupt.len());
            corrupt[at] = rng.random();
            if let Ok(column) = Column::decode(&corrupt) {
                assert!(
                    column.len() <= corrupt.len() * 8,
                    "{} values decoded from {} bytes",
                    column.len(),
                    corrupt.len()
                );
            }
        }
    }
}
