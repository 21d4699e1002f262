//! Pins the exact bits SGD produces: a seeded `Tuner::train_on_features`
//! on a two-layer head above a frozen prefix, and a full-network
//! `Mlp::train_step(.., freeze_below: 0)` (which runs the ReLU mask and
//! skips only the bottom layer's input gradient). The FNV-1a hash covers
//! every returned loss and the final weights and biases. Any change to
//! the batch order, the rng stream, the backprop loop or the rounding
//! order of the momentum update moves it.

use dnn::{Mlp, TrainConfig};
use ndpipe::Tuner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{default_math_policy, MathPolicy, Tensor};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

#[test]
fn seeded_sgd_bits_are_pinned() {
    // The pinned value is the deterministic kernel's; the other policies
    // are free to round differently.
    if default_math_policy() != MathPolicy::Deterministic {
        return;
    }
    let mut rng = StdRng::seed_from_u64(3301);
    let mut h = FNV_OFFSET;

    // Tuner: a 10 → 8 → 5 head over a frozen 12 → 16 → 10 prefix, 50 rows
    // in batches of 16 (the last batch is ragged), two jobs of 3 epochs.
    let model = Mlp::new(&[12, 16, 10, 8, 5], 2, &mut rng);
    let mut tuner = Tuner::new(
        model,
        TrainConfig {
            batch: 16,
            lr: 0.05,
            ..TrainConfig::default()
        },
    );
    let feats = Tensor::randn(&[50, 10], &mut rng);
    let labels: Vec<usize> = (0..50).map(|i| (i * 7) % 5).collect();
    for _ in 0..2 {
        let loss = tuner.train_on_features(&feats, &labels, 3, &mut rng);
        h = fnv1a(h, &loss.to_bits().to_le_bytes());
    }
    h = fnv1a(h, &tuner.model().to_bytes());

    // Full training of a 3-layer net: every layer moves.
    let mut net = Mlp::new(&[8, 12, 10, 4], 1, &mut rng);
    let x = Tensor::randn(&[24, 8], &mut rng);
    let y: Vec<usize> = (0..24).map(|i| i % 4).collect();
    for _ in 0..5 {
        let loss = net.train_step(&x, &y, 0.05, 0.9, 0);
        h = fnv1a(h, &loss.to_bits().to_le_bytes());
    }
    h = fnv1a(h, &net.to_bytes());

    assert_eq!(h, 0x74d0_d566_1833_fb27, "SGD bits moved: {h:#018x}");
}
