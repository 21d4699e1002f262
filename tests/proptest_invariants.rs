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

/// Which decoder a golden encoding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Request,
    Reply,
    Handshake,
    Snapshot,
    Placement,
    Delta,
    Model,
}

fn golden_snapshot() -> telemetry::Snapshot {
    use telemetry::{HistogramSnapshot, Sample, SampleValue, Snapshot};
    Snapshot {
        samples: vec![
            Sample {
                name: "c_total".into(),
                labels: vec![("op".into(), "infer".into())],
                help: "a counter".into(),
                value: SampleValue::Counter(9),
            },
            Sample {
                name: "g".into(),
                labels: Vec::new(),
                help: "a gauge".into(),
                value: SampleValue::Gauge(-2.25),
            },
            Sample {
                name: "h_seconds".into(),
                labels: Vec::new(),
                help: "a histogram".into(),
                value: SampleValue::Histogram(HistogramSnapshot {
                    count: 3,
                    sum: 1.5,
                    min: 0.25,
                    max: 0.75,
                    buckets: vec![(0.5, 2), (1.0, 1)],
                }),
            },
        ],
    }
}

/// One seeded instance of every peer-supplied byte format: each
/// `Request`, `Reply` and `Handshake` variant as a whole frame, plus the
/// standalone `Snapshot`, `PlacementMap`, `ModelDelta` and `Mlp` blobs.
fn golden_encodings() -> Vec<(&'static str, Format, Vec<u8>)> {
    use dnn::Mlp;
    use ndpipe::rpc::wire::{
        write_handshake, write_reply, write_request, Handshake, PhotoRecord, Reply, Request,
        ShardDesc,
    };
    use ndpipe::{ModelDelta, PlacementMap};
    use rand::{rngs::StdRng, SeedableRng};
    use tensor::linalg::KernelFamily;
    use tensor::MathPolicy;

    let mut map = PlacementMap::new(&[10, 20, 30], 2).expect("map");
    map.mark_down(20).expect("known node");
    let record = PhotoRecord {
        id: 42,
        class: 3,
        day: 7,
        preproc_bytes: 1024,
        blob: vec![5; 6],
        sidecar: vec![9; 3],
    };
    let requests = [
        ("req.install_model", Request::InstallModel(vec![1, 2, 3])),
        (
            "req.install_head",
            Request::InstallHead {
                prefix_digest: 0x0102_0304_0506_0708,
                head: vec![1, 2, 3],
            },
        ),
        ("req.offline_infer", Request::OfflineInfer),
        ("req.apply_delta", Request::ApplyDelta(vec![9, 8])),
        ("req.describe", Request::Describe),
        ("req.metrics", Request::Metrics),
        (
            "req.infer",
            Request::Infer {
                features: vec![0.5, -1.25],
            },
        ),
        ("req.placement", Request::Placement),
        (
            "req.install_placement",
            Request::InstallPlacement(map.clone()),
        ),
        ("req.put_photo", Request::PutPhoto(record.clone())),
        ("req.get_photo", Request::GetPhoto(0x0102_0304_0506_0708)),
        ("req.list_photos", Request::ListPhotos),
        (
            "req.extract_slice",
            Request::ExtractSlice {
                node: 2,
                run: 1,
                n_run: 3,
                mb: 0,
                n_mb: 2,
            },
        ),
        ("req.describe_node", Request::DescribeNode(7)),
        ("req.shutdown", Request::Shutdown),
    ];
    let replies = [
        ("rep.ack", Reply::Ack),
        (
            "rep.features",
            Reply::Features {
                features: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
                labels: vec![0, 1],
            },
        ),
        ("rep.labels", Reply::Labels(vec![(7, 3), (9, 0)])),
        (
            "rep.shard_info",
            Reply::ShardInfo(ShardDesc {
                examples: 123,
                classes: 10,
                math: MathPolicy::Fast,
                kernel: KernelFamily::Avx512,
            }),
        ),
        ("rep.metrics", Reply::Metrics(golden_snapshot())),
        ("rep.label", Reply::Label(5)),
        ("rep.placement", Reply::Placement(map.clone())),
        ("rep.photo", Reply::Photo(record)),
        ("rep.photo_ids", Reply::PhotoIds(vec![1, u64::MAX])),
        ("rep.error", Reply::Error("boom".into())),
    ];
    let handshakes = [
        (
            "hs.hello",
            Handshake::Hello {
                version: 3,
                features: 0b101,
            },
        ),
        (
            "hs.accept",
            Handshake::Accept {
                version: 3,
                features: 0b111,
                store_id: 9,
            },
        ),
        (
            "hs.reject",
            Handshake::Reject {
                version: 3,
                reason: "full".into(),
            },
        ),
    ];

    let mut out = Vec::new();
    for (name, req) in requests {
        let mut w = Vec::new();
        write_request(&mut w, &req).expect("encode request");
        out.push((name, Format::Request, w));
    }
    for (name, reply) in replies {
        let mut w = Vec::new();
        write_reply(&mut w, &reply).expect("encode reply");
        out.push((name, Format::Reply, w));
    }
    for (name, hs) in handshakes {
        let mut w = Vec::new();
        write_handshake(&mut w, &hs).expect("encode handshake");
        out.push((name, Format::Handshake, w));
    }
    out.push(("snapshot", Format::Snapshot, golden_snapshot().to_bytes()));
    out.push(("placement", Format::Placement, map.to_bytes()));
    let old = Mlp::new(&[4, 6, 3], 1, &mut StdRng::seed_from_u64(1));
    let new = Mlp::new(&[4, 6, 3], 1, &mut StdRng::seed_from_u64(2));
    let delta = ModelDelta::between(&old, &new).with_versions(3, 4);
    out.push(("delta", Format::Delta, delta.to_bytes()));
    let model = Mlp::new(&[2, 3, 2], 1, &mut StdRng::seed_from_u64(3));
    out.push(("model", Format::Model, model.to_bytes()));
    out
}

/// The exact bytes of every golden encoding, one `name hex` line each.
const GOLDEN_HEX: &str = "\
req.install_model 0300000001010203
req.install_head 0b000000110807060504030201010203
req.offline_infer 0000000003
req.apply_delta 02000000040908
req.describe 0000000005
req.metrics 0000000007
req.infer 0c00000008020000000000003f0000a0bf
req.placement 0000000009
req.install_placement 2f0000000a01000000020000000000000002000000030000000a00000000000000011400000000000000001e0000000000000001
req.put_photo 250000000b2a000000000000000300000007000000000400000600000005050505050503000000090909
req.get_photo 080000000c0807060504030201
req.list_photos 000000000d
req.extract_slice 180000000f020000000000000001000000030000000000000002000000
req.describe_node 08000000100700000000000000
req.shutdown 0000000006
rep.ack 0000000040
rep.features 240000004102000000020000000000803f000000400000404000008040020000000000000001000000
rep.labels 1c0000004202000000070000000000000003000000090000000000000000000000
rep.shard_info 0e000000437b000000000000000a0000000103
rep.metrics ba000000440300000007000000635f746f74616c090000006120636f756e74657201000000020000006f7005000000696e66657200090000000000000001000000670700000061206761756765000000000100000000000002c009000000685f7365636f6e64730b0000006120686973746f6772616d00000000020300000000000000000000000000f83f000000000000d03f000000000000e83f02000000000000000000e03f0200000000000000000000000000f03f0100000000000000
rep.label 040000004505000000
rep.placement 2f0000004601000000020000000000000002000000030000000a00000000000000011400000000000000001e0000000000000001
rep.photo 25000000472a000000000000000300000007000000000400000600000005050505050503000000090909
rep.photo_ids 1400000048020000000100000000000000ffffffffffffffff
rep.error 040000007f626f6f6d
hs.hello 0c00000020030000000500000000000000
hs.accept 14000000210300000007000000000000000900000000000000
hs.reject 08000000220300000066756c6c
snapshot 0300000007000000635f746f74616c090000006120636f756e74657201000000020000006f7005000000696e66657200090000000000000001000000670700000061206761756765000000000100000000000002c009000000685f7365636f6e64730b0000006120686973746f6772616d00000000020300000000000000000000000000f83f000000000000d03f000000000000e83f02000000000000000000e03f0200000000000000000000000000f03f0100000000000000
placement 01000000020000000000000002000000030000000a00000000000000011400000000000000001e0000000000000001
delta cc00000000000000030000000000000004000000000000006364606060066236205e77f1a9f5a1933392ea4fff0bbac422ee70c1e9ec86ccd74009100000
model 4e44504d0200000001000000020000000300000014d00cbe900c4c3f759b423f80dca1be065a633f98b5943e000000000000000000000000030000000200000002c905bf78bf4fbe9988ea3c84724fbf25f726bd7b82923e0000000000000000
";

/// Pins every peer-supplied byte format: a codec refactor that moves a
/// single byte of any frame, snapshot, map, delta or model blob fails
/// here (and a deliberate format change must bump `PROTOCOL_VERSION`).
#[test]
fn golden_bytes_pin_every_peer_format() {
    let actual: String = golden_encodings()
        .iter()
        .map(|(name, _, bytes)| {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            format!("{name} {hex}\n")
        })
        .collect();
    for (want, got) in GOLDEN_HEX.lines().zip(actual.lines()) {
        assert_eq!(got, want, "encoding moved");
    }
    assert_eq!(actual, GOLDEN_HEX, "encoding set changed:\n{actual}");
    assert_eq!(ndpipe::rpc::wire::PROTOCOL_VERSION, 4);
}

/// What a lying length field says, relative to the `left` bytes that
/// follow it: the edges of `u32`, and one byte short of or past the end.
fn lying_length(lie: usize, left: usize) -> u32 {
    match lie {
        0 => 0,
        1 => 1,
        2 => 1 << 31,
        3 => u32::MAX,
        4 => left.saturating_sub(1) as u32,
        _ => left.saturating_add(1) as u32,
    }
}

/// Structure-aware corruptions of a valid encoding, each handed to
/// `decode`: every truncation, then every 4-byte window — alone, and
/// with the window after it — overwritten with `lying_length(lie, ..)`.
/// Random bytes almost never get past a format's first length field;
/// these reach every field a real peer could lie in.
fn corrupt(bytes: &[u8], lie: usize, mut decode: impl FnMut(&[u8])) {
    for cut in 0..bytes.len() {
        decode(&bytes[..cut]);
    }
    for at in 0..bytes.len().saturating_sub(3) {
        let v = lying_length(lie, bytes.len() - at - 4).to_le_bytes();
        for width in [4, 8] {
            if at + width <= bytes.len() {
                let mut m = bytes.to_vec();
                for w in m[at..at + width].chunks_exact_mut(4) {
                    w.copy_from_slice(&v);
                }
                decode(&m);
            }
        }
    }
}

mod rpc_props {
    use super::*;
    use ndpipe::rpc::wire::{read_handshake, read_reply, read_request, FrameDecoder};
    use ndpipe::PlacementMap;

    /// Every frame decoder over the same bytes: each must return.
    fn decode_frames(bytes: &[u8]) {
        let mut dec = FrameDecoder::new();
        dec.feed(bytes);
        while let Ok(Some(_)) = dec.next_frame() {}
        let _ = read_request(&mut &bytes[..]);
        let _ = read_reply(&mut &bytes[..]);
        let _ = read_handshake(&mut &bytes[..]);
    }

    proptest! {
        /// Feeding arbitrary bytes to the frame decoders never panics —
        /// they either parse or error. Neither do the corruptions of
        /// every golden frame, snapshot and placement map: lying counts
        /// must come back as errors, not as aborts on a huge allocation.
        #[test]
        fn wire_decoders_never_panic(
            garbage in prop::collection::vec(any::<u8>(), 0..256),
            lie in 0usize..6,
        ) {
            let _ = read_request(&mut garbage.as_slice());
            let _ = read_reply(&mut garbage.as_slice());
            for (_, format, bytes) in golden_encodings() {
                match format {
                    Format::Request | Format::Reply | Format::Handshake => {
                        corrupt(&bytes, lie, decode_frames);
                        // The same corruptions of the payload under an
                        // honest header reach every body decoder.
                        let (head, payload) = bytes.split_at(5);
                        corrupt(payload, lie, |p| {
                            let mut f = (p.len() as u32).to_le_bytes().to_vec();
                            f.push(head[4]);
                            f.extend_from_slice(p);
                            decode_frames(&f);
                        });
                    }
                    Format::Snapshot => corrupt(&bytes, lie, |b| {
                        let _ = telemetry::Snapshot::from_bytes(b);
                    }),
                    Format::Placement => corrupt(&bytes, lie, |b| {
                        let _ = PlacementMap::from_bytes(b);
                    }),
                    Format::Delta | Format::Model => {}
                }
            }
        }
    }
}

mod model_blob_props {
    use super::*;
    use dnn::Mlp;
    use ndpipe::ModelDelta;
    use ndpipe_data::deflate;

    proptest! {
        /// Model deserialization never panics on garbage or on any
        /// corruption of the golden model and delta blobs, and always
        /// round-trips real models bit-exactly.
        #[test]
        fn model_blob_robustness(
            garbage in prop::collection::vec(any::<u8>(), 0..128),
            seed in 0u64..200,
            lie in 0usize..6,
        ) {
            let _ = Mlp::from_bytes(&garbage);
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Mlp::new(&[3, 5, 2], 1, &mut rng);
            let back = Mlp::from_bytes(&m.to_bytes()).expect("own blob parses");
            let x = Tensor::randn(&[2, 3], &mut rng);
            let original = m.forward(&x);
            let restored = back.forward(&x);
            prop_assert_eq!(original.data(), restored.data());

            // The golden delta's base model, so a corrupt delta that
            // still decodes is applied as deep as its bytes allow.
            let base = Mlp::new(&[4, 6, 3], 1, &mut StdRng::seed_from_u64(1));
            let apply = |b: &[u8]| {
                if let Ok(delta) = ModelDelta::from_bytes(b) {
                    let _ = delta.apply(&mut base.clone());
                }
            };
            for (_, format, bytes) in golden_encodings() {
                match format {
                    Format::Model => corrupt(&bytes, lie, |b| {
                        let _ = Mlp::from_bytes(b);
                    }),
                    Format::Delta => {
                        corrupt(&bytes, lie, apply);
                        // The compressed payload hides the layer table;
                        // corrupt it inflated, then deflate it honestly.
                        let (head, payload) = bytes.split_at(24);
                        let raw = deflate::decompress_framed(payload).expect("golden delta inflates");
                        corrupt(&raw, lie, |r| apply(&[head, &deflate::compress(r)].concat()));
                    }
                    _ => {}
                }
            }
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
