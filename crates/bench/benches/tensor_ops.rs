//! Micro-benchmarks of the tensor substrate's hot kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::linalg::Gemm;
use tensor::{activation, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("matmul");
    for n in [32usize, 128, 256] {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| Gemm::new(std::hint::black_box(&a), std::hint::black_box(&b)).run())
        });
    }
    group.finish();
}

fn bench_matmul_variants(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = Tensor::randn(&[128, 128], &mut rng);
    let b = Tensor::randn(&[128, 128], &mut rng);
    c.bench_function("matmul_tn_128", |bench| {
        bench.iter(|| {
            Gemm::new(std::hint::black_box(&a), std::hint::black_box(&b))
                .transpose_a()
                .run()
        })
    });
    c.bench_function("matmul_nt_128", |bench| {
        bench.iter(|| {
            Gemm::new(std::hint::black_box(&a), std::hint::black_box(&b))
                .transpose_b()
                .run()
        })
    });
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let logits = Tensor::randn(&[256, 1000], &mut rng);
    c.bench_function("softmax_256x1000", |bench| {
        bench.iter(|| activation::softmax_rows(std::hint::black_box(&logits)))
    });
}

criterion_group!(benches, bench_matmul, bench_matmul_variants, bench_softmax);
criterion_main!(benches);
