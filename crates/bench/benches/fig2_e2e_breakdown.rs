//! Regenerates Figure 2 (end-to-end breakdown) from the simulated fleet and benchmarks the
//! aggregation stage.

use hsdp_bench::exhibits;
use hsdp_bench::harness::Criterion;
use hsdp_bench::{criterion_group, criterion_main};
use std::hint::black_box;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1200))
        .warm_up_time(std::time::Duration::from_millis(300))
}

fn bench(c: &mut Criterion) {
    let runs = hsdp_bench::fleet::profile_fleet(exhibits::bench_fleet_config());
    println!("\n{}", exhibits::figure2_exhibit(&runs));
    c.bench_function("fig2_e2e_breakdown/render", |b| {
        b.iter(|| black_box(exhibits::figure2_exhibit(black_box(&runs))))
    });
}

criterion_group!(name = benches; config = quick(); targets = bench);
criterion_main!(benches);
