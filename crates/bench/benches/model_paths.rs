//! Micro-benchmarks of the model execution paths FT-DMP exercises:
//! feature extraction (the PipeStore hot loop), classifier training (the
//! Tuner hot loop) and Check-N-Run delta encode/apply.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dnn::Mlp;
use ndpipe::ModelDelta;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

fn model(rng: &mut StdRng) -> Mlp {
    Mlp::new(&[64, 96, 64, 100], 2, rng)
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let m = model(&mut rng);
    let batch = Tensor::randn(&[128, 64], &mut rng);
    let mut group = c.benchmark_group("pipestore");
    group.throughput(Throughput::Elements(128));
    group.bench_function("features_batch128", |b| {
        b.iter(|| m.features(std::hint::black_box(&batch)))
    });
    group.bench_function("forward_batch128", |b| {
        b.iter(|| m.forward(std::hint::black_box(&batch)))
    });
    group.finish();
}

fn bench_tuner_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut m = model(&mut rng);
    let feats = m.features(&Tensor::randn(&[128, 64], &mut rng));
    let labels: Vec<usize> = (0..128).map(|i| i % 100).collect();
    let mut group = c.benchmark_group("tuner");
    group.throughput(Throughput::Elements(128));
    group.bench_function("tune_step_batch128", |b| {
        b.iter(|| m.tune_step_on_features(std::hint::black_box(feats.clone()), &labels, 0.05, 0.9))
    });
    group.bench_function("full_train_step_batch128", |b| {
        let x = Tensor::randn(&[128, 64], &mut rng);
        b.iter(|| {
            let mut m2 = m.clone();
            m2.train_step(std::hint::black_box(&x), &labels, 0.05, 0.9, 0)
        })
    });
    group.finish();
}

fn bench_delta(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let old = model(&mut rng);
    let mut new = old.clone();
    let x = Tensor::randn(&[64, 64], &mut rng);
    let labels: Vec<usize> = (0..64).map(|i| i % 100).collect();
    for _ in 0..5 {
        new.train_step(&x, &labels, 0.05, 0.9, new.split());
    }
    let delta = ModelDelta::between(&old, &new);
    c.bench_function("delta_encode", |b| {
        b.iter(|| ModelDelta::between(std::hint::black_box(&old), &new))
    });
    c.bench_function("delta_apply", |b| {
        b.iter(|| {
            let mut replica = old.clone();
            delta.apply(&mut replica).expect("applies");
            replica
        })
    });
}

criterion_group!(
    benches,
    bench_feature_extraction,
    bench_tuner_step,
    bench_delta
);
criterion_main!(benches);
