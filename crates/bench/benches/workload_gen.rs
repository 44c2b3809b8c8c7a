//! Workload-generation throughput: how fast the calibrated trace
//! generator and QC presets produce a runnable workload.

use criterion::{criterion_group, criterion_main, Criterion};
use quts_workload::arrivals::{arrivals_with_shape, declining_shape};
use quts_workload::popularity::ZipfSampler;
use quts_workload::{qcgen, QcPreset, QcShape, StockWorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_generate(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload_gen");
    g.sample_size(20);
    g.bench_function("generate_30s_trace", |b| {
        let cfg = StockWorkloadConfig::default().scaled(60);
        b.iter(|| black_box(cfg.generate()))
    });
    // The input of every figure, and of each benchmark set-up: Table 3's
    // 82,129 queries and 496,892 updates over 4,608 stocks.
    g.bench_function("generate_paper_trace", |b| {
        let cfg = StockWorkloadConfig::default();
        b.iter(|| black_box(cfg.generate()))
    });
    g.bench_function("assign_qcs_30s_trace", |b| {
        let trace = StockWorkloadConfig::default().scaled(60).generate();
        b.iter_batched(
            || trace.clone(),
            |mut t| {
                qcgen::assign_qcs(&mut t, QcPreset::Spectrum { k: 5 }, QcShape::Step, 7);
                black_box(t)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The generator's two samplers at the sizes the paper trace uses them:
/// cluster heads over 1,800 one-second segments, ranks over 4,608 stocks.
fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload_samplers");
    g.sample_size(20);
    g.bench_function("arrivals_with_shape_400k_1800seg", |b| {
        let shape = declining_shape(1_800, 1.0, 0.4);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(arrivals_with_shape(&mut rng, 400_000, 1_800.0, &shape)))
    });
    g.bench_function("zipf_sample_4608", |b| {
        let zipf = ZipfSampler::new(4_608, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    g.finish();
}

fn bench_csv(c: &mut Criterion) {
    let trace = StockWorkloadConfig::default().scaled(120).generate();
    let mut buf = Vec::new();
    trace.write_csv(&mut buf).unwrap();
    let mut g = c.benchmark_group("trace_csv");
    g.sample_size(20);
    g.bench_function("write_15s_trace", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            black_box(&trace).write_csv(&mut out).unwrap();
            black_box(out)
        })
    });
    g.bench_function("read_15s_trace", |b| {
        b.iter(|| quts_workload::Trace::read_csv(&mut black_box(buf.as_slice())).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_generate, bench_samplers, bench_csv);
criterion_main!(benches);
