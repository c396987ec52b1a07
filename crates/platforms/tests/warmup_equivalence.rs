//! The record-free warmup is the recording warmup minus its records: a
//! Spanner group preloaded through [`Spanner::preload`] must serve the same
//! telemetry-on traffic afterwards as one preloaded through
//! [`Spanner::commit`] — every execution, every metric, the clock and the
//! log. (The tablet's equivalent lives in `bigtable.rs`, where `Tablet` is
//! visible.)

use hsdp_core::category::Platform;
use hsdp_core::request::RequestId;
use hsdp_platforms::{QueryExecution, Spanner};
use hsdp_rng::StdRng;
use hsdp_simcore::time::SimTime;
use hsdp_telemetry::MetricsRegistry;
use hsdp_workload::keys::{KeyGen, ValueGen};

/// What a warmed group served, and the state it ended in.
struct Served {
    executions: Vec<QueryExecution>,
    metrics: String,
    now: SimTime,
    log_len: usize,
}

/// Preloads a group (through `preload` or through `commit`), then serves
/// a mixed, request-tagged traffic stream with telemetry on.
fn serve(record_free: bool) -> Served {
    let mut db = Spanner::new(0x5EED);
    let keys = KeyGen::new("sp", 600, 0.9);
    let values = ValueGen::new(400);
    let mut rng = StdRng::seed_from_u64(11);
    for rank in 0..400 {
        let (key, value) = (keys.key_for_rank(rank), values.sample(&mut rng));
        if record_free {
            db.preload(key, value);
        } else {
            db.commit(key, value);
        }
    }
    db.recorder.set_telemetry(MetricsRegistry::new());
    let executions = (0..240)
        .map(|index| {
            db.recorder
                .set_request(RequestId::tag(Platform::Spanner, 0, index));
            let key = keys.sample(&mut rng);
            match index % 4 {
                0 => db.read(&key),
                1 => db.commit(key, values.sample(&mut rng)),
                2 => db.query(&key, 20, 100),
                _ => db.read_modify_write(key, values.sample(&mut rng)),
            }
        })
        .collect();
    assert_eq!(db.recorder.open_spans(), 0);
    Served {
        executions,
        metrics: db.recorder.take_telemetry().to_json(),
        now: db.recorder.now(),
        log_len: db.log_len(),
    }
}

#[test]
fn spanner_preload_serves_traffic_like_commit() {
    let (recorded, record_free) = (serve(false), serve(true));
    assert_eq!(record_free.executions.len(), recorded.executions.len());
    for (i, (a, b)) in recorded
        .executions
        .iter()
        .zip(&record_free.executions)
        .enumerate()
    {
        assert_eq!(a.label, b.label, "execution {i}: label");
        assert_eq!(a.request, b.request, "execution {i}: request");
        assert_eq!(a.spans, b.spans, "execution {i}: spans");
        assert_eq!(a.cpu_work, b.cpu_work, "execution {i}: cpu_work");
    }
    assert!(
        record_free.metrics == recorded.metrics,
        "traffic telemetry differs"
    );
    assert_eq!(record_free.now, recorded.now, "clock");
    assert_eq!(record_free.log_len, recorded.log_len, "log length");
}

#[test]
fn spanner_preload_with_telemetry_on_records_like_commit() {
    // Preload is warmup, but a registry that is on while it runs still
    // sees every counter a commit would add, CPU included.
    let metrics = |record_free: bool| {
        let mut db = Spanner::new(3);
        db.recorder.set_telemetry(MetricsRegistry::new());
        for i in 0..50u32 {
            let key = format!("k{i:03}").into_bytes();
            if record_free {
                db.preload(key, vec![b'v'; 120]);
            } else {
                db.commit(key, vec![b'v'; 120]);
            }
        }
        db.recorder.take_telemetry()
    };
    let (recorded, record_free) = (metrics(false), metrics(true));
    assert!(recorded.counter_subsystem_sum("cpu") > 0);
    assert_eq!(record_free.to_json(), recorded.to_json());
}
