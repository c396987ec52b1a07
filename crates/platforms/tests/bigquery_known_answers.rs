//! Known answers for the analytics engine: the length and CRC32C of the
//! record stream and of the telemetry JSON that BigQuery shards produce.
//!
//! The operator kernels (filter, aggregate, join, top-k) only compute the
//! counts that drive each query's charges: matched rows, groups, joined
//! names and top-k candidates. A kernel that gets one of those counts wrong
//! still runs, but it moves a `WorkMeter` charge, a span end or a metric.
//! These pins catch that. The shapes cover the kernels' regimes:
//!
//! - `run_bigquery_shard` with 5 fact rows: most of the eight worker
//!   partitions are empty, and top-k's k = 50 exceeds every partition;
//! - with 600 rows: small partitions, k still exceeds each one;
//! - with 8,000 rows: the fleet-traffic shape's partitions, k < rows;
//! - a hand-built engine whose dimension table lists one region twice
//!   under different names (the later row wins) and gives two regions one
//!   name, and whose facts name regions the dimension lacks; it also runs
//!   top-k with k = 0 and with k above the whole table.

use hsdp_core::category::Platform;
use hsdp_core::request::RequestId;
use hsdp_platforms::runner::run_bigquery_shard;
use hsdp_platforms::{BigQuery, QueryExecution};
use hsdp_rng::StdRng;
use hsdp_taxes::crc::crc32c;
use hsdp_telemetry::MetricsRegistry;
use hsdp_workload::rows::{DimRow, FactGen};

/// The seed every shape runs under.
const SEED: u64 = 0xB16_0E27;

/// The record stream as fleetbench's `record_stream_crc` folds it: every
/// label, span (name, start, end, kind priority) and CPU work item (leaf,
/// nanoseconds), in stream order.
fn record_bytes(executions: &[QueryExecution]) -> Vec<u8> {
    let mut out = Vec::new();
    for exec in executions {
        out.extend_from_slice(exec.label.as_bytes());
        for span in &exec.spans {
            out.extend_from_slice(span.name.as_bytes());
            out.extend_from_slice(&span.start.as_nanos().to_le_bytes());
            out.extend_from_slice(&span.end.as_nanos().to_le_bytes());
            out.push(span.kind.priority());
        }
        for item in &exec.cpu_work {
            out.extend_from_slice(item.leaf.as_bytes());
            out.extend_from_slice(&item.time.as_nanos().to_le_bytes());
        }
    }
    out
}

/// `(length, CRC32C)` of the record stream and of the metrics JSON.
fn pins(executions: &[QueryExecution], telemetry: &MetricsRegistry) -> [(usize, u32); 2] {
    let records = record_bytes(executions);
    let json = telemetry.to_json();
    [
        (records.len(), crc32c(&records)),
        (json.len(), crc32c(json.as_bytes())),
    ]
}

#[test]
fn shards_emit_the_pinned_records_and_metrics() {
    for (queries, fact_rows, want) in [
        (40, 5, [(147_209, 0xd5f0_1be3), (3_371, 0xbbdf_7293)]),
        (60, 600, [(255_936, 0xa145_37f0), (3_284, 0x7375_a38a)]),
        (24, 8_000, [(95_506, 0x4162_dd8d), (3_136, 0x98df_af95)]),
    ] {
        let (executions, telemetry) = run_bigquery_shard(queries, fact_rows, SEED, 1, true);
        assert_eq!(executions.len(), queries);
        assert_eq!(
            pins(&executions, &telemetry),
            want,
            "{queries} queries over {fact_rows} rows: records or metrics changed"
        );
    }
}

/// A dimension that covers regions 0..30 only, gives regions 7 and 9 one
/// name, and lists region 5 twice: the later row, which wins, gives it
/// region 6's name, so the join's group count shows which row won.
fn awkward_dimension() -> Vec<DimRow> {
    let mut dim: Vec<DimRow> = (0..30)
        .map(|region| DimRow {
            region,
            name: match region {
                5 => "east-old".to_owned(),
                7 | 9 => "shared".to_owned(),
                _ => format!("r{region:02}"),
            },
        })
        .collect();
    dim.push(DimRow {
        region: 5,
        name: "r06".to_owned(),
    });
    dim
}

#[test]
fn hand_built_engine_emits_the_pinned_records_and_metrics() {
    let gen = FactGen {
        regions: 40,
        ..FactGen::default()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let rows = gen.rows(3_000, &mut rng);
    let mut bq = BigQuery::new(SEED);
    bq.load(&rows, awkward_dimension());
    bq.recorder.set_telemetry(MetricsRegistry::new());
    let queries: [fn(&mut BigQuery) -> QueryExecution; 7] = [
        |bq| bq.scan_filter(25.0),
        BigQuery::group_aggregate,
        BigQuery::join,
        |bq| bq.top_k(50),
        |bq| bq.top_k(0),
        |bq| bq.top_k(10_000),
        BigQuery::join,
    ];
    let executions: Vec<QueryExecution> = queries
        .iter()
        .enumerate()
        .map(|(index, query)| {
            bq.recorder
                .set_request(RequestId::tag(Platform::BigQuery, 0, index));
            query(&mut bq)
        })
        .collect();
    assert_eq!(bq.recorder.open_spans(), 0);
    assert_eq!(
        pins(&executions, &bq.recorder.take_telemetry()),
        [(24_731, 0x619b_6e9d), (2_986, 0xddc4_42c0)],
        "hand-built engine: records or metrics changed"
    );
}
