//! Times every experiment registry entry's report at the paper seed: the
//! work `picloud-cli <id>` does, one line per experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::REGISTRY;
use picloud_bench::quick_criterion;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for e in REGISTRY {
        c.bench_function(&format!("experiments/{}", e.id), |b| {
            b.iter(|| black_box((e.report)(2013)))
        });
    }
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
