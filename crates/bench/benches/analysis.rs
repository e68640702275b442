//! The analysis engine: cube build, cube-backed accessors, and the
//! affinity-propagation sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webdep_analysis::centralization::layer_table;
use webdep_analysis::AnalysisCtx;
use webdep_bench::fixture;
use webdep_stats::affinity::{affinity_propagation, AffinityConfig};
use webdep_webgen::{Layer, World};

fn cube_build(c: &mut Criterion) {
    let (world, ds) = fixture();
    let mut g = c.benchmark_group("cube_build");
    g.sample_size(10);
    g.bench_function("tiny_world", |b| {
        b.iter(|| black_box(AnalysisCtx::new(world, ds)))
    });
    g.finish();
}

fn accessors(c: &mut Criterion) {
    let (world, ds) = fixture();
    let ctx = AnalysisCtx::new(world, ds);
    let us = World::country_index("US").unwrap();
    let owner = ctx.country_counts(us, Layer::Hosting)[0].0;

    let mut g = c.benchmark_group("owner_share_150_countries");
    g.sample_size(10);
    g.bench_function("cube", |b| {
        b.iter(|| {
            for ci in 0..150 {
                black_box(ctx.owner_share(ci, Layer::Hosting, owner));
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("layer_table_hosting");
    g.sample_size(10);
    g.bench_function("cube", |b| {
        b.iter(|| black_box(layer_table(&ctx, Layer::Hosting)))
    });
    g.finish();
}

/// Deterministic synthetic feature vectors (three loose Gaussian-ish
/// blobs via xorshift), matching the shape classify feeds the clusterer.
fn synthetic_points(n: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let center = (i % 3) as f64 * 2.5;
            (0..dims).map(|_| center + next()).collect()
        })
        .collect()
}

fn affinity_sweeps(c: &mut Criterion) {
    let points = synthetic_points(512, 4);
    let config = AffinityConfig::default();
    let mut g = c.benchmark_group("affinity_512pts");
    g.sample_size(10);
    g.bench_function("tiled_serial", |b| {
        b.iter(|| black_box(affinity_propagation(&points, &config)))
    });
    g.finish();
}

criterion_group!(benches, cube_build, accessors, affinity_sweeps);
criterion_main!(benches);
