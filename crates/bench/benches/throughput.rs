//! Criterion throughput bench: the serial `Pipeline` over a 100-sensor
//! fixed-seed trace.
//!
//! The headline numbers for the paper-style table live in the
//! `sentinet-bench` binary (`BENCH_engine.json`); this bench exists to
//! catch regressions in the detector's hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_sim::{gdi, simulate, Trace, DAY_S};
use std::hint::black_box;

fn wide_trace(num_sensors: u16, days: u64, seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.num_sensors = num_sensors;
    cfg.duration = days * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    (trace, cfg.sample_period)
}

fn bench_throughput(c: &mut Criterion) {
    let (trace, period) = wide_trace(100, 1, 42);

    c.bench_function("throughput/serial_100_sensors", |b| {
        b.iter(|| {
            let mut p = Pipeline::new(PipelineConfig::default(), period);
            p.process_trace(black_box(&trace));
            p.windows_processed()
        })
    });
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
