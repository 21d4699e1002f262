//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use tensor::linalg::{self, Gemm};
use tensor::{Shape, Tensor};

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

proptest! {
    /// offset/unravel are inverse bijections over the whole index space.
    #[test]
    fn shape_offset_unravel_bijection(dims in small_dims()) {
        let shape = Shape::new(&dims);
        for flat in 0..shape.len() {
            let idx = shape.unravel(flat).expect("in range");
            prop_assert_eq!(shape.offset(&idx), Some(flat));
        }
        prop_assert_eq!(shape.unravel(shape.len()), None);
    }

    /// Reshape preserves data for any compatible factorization.
    #[test]
    fn reshape_preserves_data(rows in 1usize..8, cols in 1usize..8) {
        let n = rows * cols;
        let t = Tensor::from_vec((0..n).map(|x| x as f32).collect(), &[rows, cols]);
        let r = t.reshape(&[cols, rows]).expect("same size");
        prop_assert_eq!(r.data(), t.data());
        let flat = t.reshape(&[n]).expect("same size");
        prop_assert_eq!(flat.data(), t.data());
    }

    /// Matmul distributes over addition: (A+B)C = AC + BC.
    #[test]
    fn matmul_distributes(seed in 0u64..1000, m in 1usize..5, k in 1usize..5, n in 1usize..5) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[m, k], &mut rng);
        let c = Tensor::randn(&[k, n], &mut rng);
        let lhs = Gemm::new(&a.add(&b), &c).run();
        let rhs = Gemm::new(&a, &c).run().add(&Gemm::new(&b, &c).run());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    /// Transpose is an involution and reverses matmul order.
    #[test]
    fn transpose_reverses_matmul(seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 2], &mut rng);
        let ab_t = linalg::transpose(&Gemm::new(&a, &b).run());
        let bt_at = Gemm::new(&linalg::transpose(&b), &linalg::transpose(&a)).run();
        for (x, y) in ab_t.data().iter().zip(bt_at.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax rows always form a probability distribution, whatever the
    /// logits (including huge magnitudes).
    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..5,
        cols in 1usize..8,
        scale in 0.0f32..1000.0,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = Tensor::randn(&[rows, cols], &mut rng).scale(scale);
        let p = tensor::activation::softmax_rows(&logits);
        for r in 0..rows {
            let row = &p.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sums to {}", sum);
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x) && x.is_finite()));
        }
    }
}

mod deflate_props {
    use super::*;
    use ndpipe_data::deflate::{compress, decompress};

    proptest! {
        /// Compression round-trips arbitrary byte strings.
        #[test]
        fn roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            let packed = compress(&data);
            prop_assert_eq!(decompress(&packed).expect("valid stream"), data);
        }

        /// Output size never exceeds the stored-block bound.
        #[test]
        fn bounded_expansion(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            let packed = compress(&data);
            let blocks = data.len().div_ceil(u16::MAX as usize).max(1);
            prop_assert!(packed.len() <= data.len() + blocks * 5 + 1);
        }

        /// Highly repetitive inputs always compress.
        #[test]
        fn repetition_compresses(byte in any::<u8>(), reps in 64usize..2048) {
            let data = vec![byte; reps];
            prop_assert!(compress(&data).len() < data.len() / 2);
        }
    }
}

mod dataset_props {
    use super::*;
    use ndpipe_data::LabeledDataset;

    proptest! {
        /// Shards partition any dataset: sizes differ by at most one and
        /// every example appears exactly once.
        #[test]
        fn shards_partition(n in 2usize..40, k in 1usize..8) {
            prop_assume!(k <= n);
            let rows: Vec<Tensor> =
                (0..n).map(|i| Tensor::from_vec(vec![i as f32], &[1])).collect();
            let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
            let ds = LabeledDataset::new(rows, labels, 3);
            let shards = ds.shards(k);
            let total: usize = shards.iter().map(|s| s.len()).sum();
            prop_assert_eq!(total, n);
            let mut seen: Vec<f32> = shards
                .iter()
                .flat_map(|s| s.features().data().to_vec())
                .collect();
            seen.sort_by(f32::total_cmp);
            let expect: Vec<f32> = (0..n).map(|i| i as f32).collect();
            prop_assert_eq!(seen, expect);
        }

        /// Batch iteration covers every row exactly once, in order.
        #[test]
        fn batches_cover(n in 1usize..40, batch in 1usize..10) {
            let rows: Vec<Tensor> =
                (0..n).map(|i| Tensor::from_vec(vec![i as f32], &[1])).collect();
            let labels: Vec<usize> = (0..n).map(|_| 0).collect();
            let ds = LabeledDataset::new(rows, labels, 1);
            let mut seen = Vec::new();
            for (x, y) in ds.batches(batch) {
                prop_assert_eq!(x.dims()[0], y.len());
                seen.extend(x.data().iter().copied());
            }
            let expect: Vec<f32> = (0..n).map(|i| i as f32).collect();
            prop_assert_eq!(seen, expect);
        }
    }
}

mod ftdmp_props {
    use super::*;
    use ndpipe::ftdmp::schedule::{slice_bounds, Schedule};
    use ndpipe::ftdmp::FtdmpConfig;

    proptest! {
        /// Walking `(run, micro-batch)` in order, `slice_bounds` tiles
        /// `[0, n)` contiguously with non-empty slices, each run's
        /// micro-batches tile exactly that run, and the schedule builds
        /// one task per slice `micro_batches_for` asks for.
        #[test]
        fn slice_bounds_partition(
            n_run in 1usize..8,
            extra in 0usize..120,
            micro_batch in 0usize..12,
        ) {
            let n = n_run + extra;
            let cfg = FtdmpConfig { n_run, micro_batch, ..FtdmpConfig::default() };
            let mut next = 0;
            let mut slices = 0;
            for run in 0..n_run {
                let whole = slice_bounds(n, run, n_run, 0, 1);
                prop_assert_eq!(whole.start, next);
                let n_mb = cfg.micro_batches_for(whole.len());
                for mb in 0..n_mb {
                    let rows = slice_bounds(n, run, n_run, mb, n_mb);
                    prop_assert_eq!(rows.start, next);
                    prop_assert!(!rows.is_empty());
                    next = rows.end;
                }
                prop_assert_eq!(next, whole.end);
                slices += n_mb;
            }
            prop_assert_eq!(next, n);
            let sched = Schedule::new(&[(0, n)].into_iter().collect(), &cfg, 1);
            prop_assert_eq!(sched.stats().micro_batches, slices);
        }
    }
}

mod metric_props {
    use super::*;
    use dnn::trainer::metrics_from_logits;

    proptest! {
        /// top5 ≥ top1 and both are valid fractions, including labels
        /// outside the class space.
        #[test]
        fn metric_bounds(
            rows in 1usize..20,
            cols in 1usize..12,
            seed in 0u64..500,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let logits = Tensor::randn(&[rows, cols], &mut rng);
            let labels: Vec<usize> =
                (0..rows).map(|_| rng.gen_range(0..cols + 3)).collect();
            let m = metrics_from_logits(&logits, &labels);
            prop_assert!(m.top5 >= m.top1);
            prop_assert!((0.0..=1.0).contains(&m.top1));
            prop_assert!((0.0..=1.0).contains(&m.top5));
        }
    }
}

mod convergence_props {
    use super::*;
    use dnn::convergence::{inter_run_loss_bound, iteration_bound};

    proptest! {
        /// Δ is monotone: more samples shrink it, more weights grow it.
        #[test]
        fn delta_monotonic(p in 1usize..1_000_000, m in 1usize..1_000_000) {
            let d = inter_run_loss_bound(p, m, 0.05);
            prop_assert!(d >= 0.0 && d.is_finite());
            prop_assert!(inter_run_loss_bound(p, m * 2, 0.05) <= d);
            prop_assert!(inter_run_loss_bound(p * 2, m, 0.05) >= d);
        }

        /// The iteration bound is non-negative and decreasing in lr.
        #[test]
        fn iteration_bound_sane(
            lr in 0.001f64..1.0,
            margin in 0.1f64..2.0,
            layers in 1usize..6,
            prev in 0.0f64..10.0,
        ) {
            let t = iteration_bound(lr, margin, layers, prev, 0.01, 0.05);
            prop_assert!(t >= 0.0 && t.is_finite());
            let t_fast = iteration_bound(lr * 2.0, margin, layers, prev, 0.01, 0.05);
            prop_assert!(t_fast <= t + 1e-9);
        }
    }
}

mod event_queue_props {
    use super::*;
    use simkit::{EventQueue, SimTime};

    proptest! {
        /// Events always pop in non-decreasing time order with FIFO ties.
        #[test]
        fn time_ordering(times in prop::collection::vec(0u32..100, 1..50)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_secs(t as f64), (t, i));
            }
            let mut last: Option<(u32, usize)> = None;
            while let Some(e) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(e.payload.0 >= lt);
                    if e.payload.0 == lt {
                        prop_assert!(e.payload.1 > li, "FIFO violated");
                    }
                }
                last = Some(e.payload);
            }
        }
    }
}

mod rpc_props {
    use super::*;
    use ndpipe::rpc::wire::{read_reply, read_request};

    proptest! {
        /// Feeding arbitrary bytes to the frame decoders never panics —
        /// they either parse or error.
        #[test]
        fn wire_decoders_never_panic(garbage in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = read_request(&mut garbage.as_slice());
            let _ = read_reply(&mut garbage.as_slice());
        }
    }
}

mod model_blob_props {
    use super::*;
    use dnn::Mlp;

    proptest! {
        /// Model deserialization never panics on garbage and always
        /// round-trips real models bit-exactly.
        #[test]
        fn model_blob_robustness(garbage in prop::collection::vec(any::<u8>(), 0..128), seed in 0u64..200) {
            let _ = Mlp::from_bytes(&garbage);
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Mlp::new(&[3, 5, 2], 1, &mut rng);
            let back = Mlp::from_bytes(&m.to_bytes()).expect("own blob parses");
            let x = Tensor::randn(&[2, 3], &mut rng);
            let original = m.forward(&x);
            let restored = back.forward(&x);
            prop_assert_eq!(original.data(), restored.data());
        }
    }
}

mod batcher_props {
    use super::*;
    use ndpipe::online::Batcher;

    proptest! {
        /// The front door's coalescing rule under arbitrary push /
        /// sweep_end / batch_done sequences: every item leaves exactly
        /// once and in arrival order, no batch exceeds `max_batch`, and
        /// the rule is work-conserving — after any sweep_end (one follows
        /// every batch_done), pending items imply a batch in flight — so
        /// a drained batcher always ends with nothing in flight.
        #[test]
        fn batcher_is_work_conserving_and_loses_nothing(
            ops in prop::collection::vec(0u8..4, 0..200),
            max_batch in 1usize..6,
        ) {
            let mut b = Batcher::new(max_batch);
            let mut pushed = 0u32;
            let mut emitted: Vec<u32> = Vec::new();
            let mut outstanding = 0usize;
            let mut book = |batch: Option<Vec<u32>>, outstanding: &mut usize| {
                if let Some(items) = batch {
                    assert!(!items.is_empty() && items.len() <= max_batch, "batch of {}", items.len());
                    emitted.extend(items);
                    *outstanding += 1;
                }
            };
            // The op stream, then a drain: finish every batch still out.
            let drain = std::iter::repeat_n(3u8, ops.len() + 1);
            for op in ops.iter().copied().chain(drain) {
                let fired = match op {
                    0 | 1 => {
                        pushed += 1;
                        b.push(pushed - 1)
                    }
                    // One batch_done per batch handed out, never more —
                    // and, as in the event loop, a completion is always
                    // followed by the end of the sweep it woke.
                    3 if outstanding > 0 => {
                        outstanding -= 1;
                        b.batch_done();
                        b.sweep_end()
                    }
                    _ => b.sweep_end(),
                };
                book(fired, &mut outstanding);
                if op >= 2 {
                    prop_assert!(b.pending() == 0 || b.in_flight() > 0, "rows stranded with nothing in flight");
                }
                prop_assert_eq!(b.in_flight(), outstanding);
                prop_assert!(b.pending() < max_batch, "pending reached max_batch without firing");
            }
            prop_assert_eq!(emitted, (0..pushed).collect::<Vec<u32>>());
            prop_assert_eq!((b.pending(), b.in_flight()), (0, 0));
        }
    }
}
