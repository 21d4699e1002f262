//! The online-inference server (Fig 7's inference path, §5.4's offload).
//!
//! New uploads hit this server first: it preprocesses each photo (once,
//! for both inference and the PipeStore sidecar — the §5.4 offload), runs
//! the model over *dynamically batched* requests for GPU efficiency, and
//! emits `(label, preprocessed binary)` so the storage tier never
//! preprocesses anything itself.
//!
//! The same module owns the batching *decision*: [`Batcher`] is the
//! work-conserving rule both this server and the RPC front door
//! ([`crate::rpc::server`], which coalesces `Infer` rows across sessions)
//! fire batches by, kept here as a pure type so it is tested without
//! sockets.

use dnn::Mlp;
use ndpipe_data::photo::preprocessed_binary;
use ndpipe_data::Photo;
use rand::Rng;
use telemetry::catalog;
use tensor::{argmax_of, Tensor};

/// One pending upload: the photo, its decoded feature vector, and where
/// the result should go (the caller keeps the ticket index).
#[derive(Debug)]
struct Pending {
    photo: Photo,
    features: Tensor,
    enqueued: std::time::Instant,
}

/// The result of online inference for one upload.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// The photo, unchanged.
    pub photo: Photo,
    /// Predicted label.
    pub label: usize,
    /// Preprocessed binary to ship to the photo's PipeStore (§5.4
    /// offload), uncompressed — the store compresses on write.
    pub preprocessed: Vec<u8>,
}

/// Throughput counters for the server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Uploads processed.
    pub processed: u64,
    /// Batches executed.
    pub batches: u64,
}

impl OnlineStats {
    /// Mean batch size achieved by dynamic batching.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.processed as f64 / self.batches as f64
        }
    }
}

/// The decision "when does a pending batch fire", as a pure
/// single-threaded state machine (no clock, no sockets, no threads). The
/// rule is work-conserving, PipeDream's 1F1B condition applied to a
/// batcher — a stage idles only when it has no input:
///
/// | state | an arriving item |
/// |---|---|
/// | nothing in flight | fires at the end of the current sweep ([`Batcher::sweep_end`]) |
/// | a batch in flight | coalesces behind it and fires at the first sweep end after it completes ([`Batcher::batch_done`]) |
/// | `max_batch` pending | fires at once, whatever is in flight ([`Batcher::push`]) |
///
/// There is no delay knob — an item never waits on a clock, only behind a
/// batch that is actually running. So batches grow exactly when the
/// consumer is the bottleneck and collapse to "run it now" when it is
/// not. Pending never exceeds `max_batch`. Every batch a method returns
/// counts as in flight until the caller reports it with one
/// [`Batcher::batch_done`]; after any `sweep_end`, pending items imply a
/// batch in flight, so nothing can strand as long as every completion is
/// followed by a sweep.
#[derive(Debug)]
pub struct Batcher<T> {
    max_batch: usize,
    pending: Vec<T>,
    in_flight: usize,
}

impl<T> Batcher<T> {
    /// An empty batcher that fires at once when `max_batch` items are
    /// pending; a `max_batch` of zero is treated as one.
    pub fn new(max_batch: usize) -> Self {
        Batcher {
            max_batch: max_batch.max(1),
            pending: Vec::new(),
            in_flight: 0,
        }
    }

    /// Items waiting for a batch.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Batches handed out and not yet reported done.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Queues one item; returns a full batch once `max_batch` are
    /// pending.
    pub fn push(&mut self, item: T) -> Option<Vec<T>> {
        self.pending.push(item);
        if self.pending.len() >= self.max_batch {
            self.take()
        } else {
            None
        }
    }

    /// End of one intake sweep: releases whatever is pending iff nothing
    /// is in flight — an idle consumer never waits for company.
    pub fn sweep_end(&mut self) -> Option<Vec<T>> {
        if self.in_flight == 0 {
            self.take()
        } else {
            None
        }
    }

    /// One previously returned batch finished (whether or not anyone
    /// still wants its results). What coalesced behind it leaves at the
    /// next [`Batcher::sweep_end`] — in the event loop, the end of the
    /// sweep the completion woke.
    pub fn batch_done(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    fn take(&mut self) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            return None;
        }
        self.in_flight += 1;
        Some(std::mem::take(&mut self.pending))
    }
}

/// An inference server with dynamic batching: requests queue in a
/// [`Batcher`] until `batch_size` accumulate (or
/// [`OnlineInferenceServer::flush`] ends the sweep and sends the partial
/// batch), then one forward pass serves them all.
#[derive(Debug)]
pub struct OnlineInferenceServer {
    model: Mlp,
    preproc_bytes: usize,
    batcher: Batcher<Pending>,
    stats: OnlineStats,
}

impl OnlineInferenceServer {
    /// Creates a server around a model.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `preproc_bytes` is zero.
    pub fn new(model: Mlp, batch_size: usize, preproc_bytes: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(preproc_bytes > 0, "preprocessed size must be positive");
        OnlineInferenceServer {
            model,
            preproc_bytes,
            batcher: Batcher::new(batch_size),
            stats: OnlineStats::default(),
        }
    }

    /// Replaces the model (after a fine-tuning round).
    pub fn update_model(&mut self, model: Mlp) {
        assert_eq!(
            model.input_dim(),
            self.model.input_dim(),
            "input dim changed"
        );
        self.model = model;
    }

    /// The live model.
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// Requests waiting for a batch.
    pub fn queued(&self) -> usize {
        self.batcher.pending()
    }

    /// Throughput counters.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// Submits an upload. Returns completed results when this submission
    /// filled a batch; otherwise the request waits in the queue.
    ///
    /// # Panics
    ///
    /// Panics if `features` isn't a vector of the model's input width.
    pub fn submit<R: Rng + ?Sized>(
        &mut self,
        photo: Photo,
        features: Tensor,
        rng: &mut R,
    ) -> Vec<OnlineResult> {
        assert_eq!(features.shape().rank(), 1, "features must be a vector");
        assert_eq!(
            features.len(),
            self.model.input_dim(),
            "feature width mismatch"
        );
        let full = self.batcher.push(Pending {
            photo,
            features,
            enqueued: std::time::Instant::now(),
        });
        self.run_batch(full, rng)
    }

    /// Forces the pending partial batch through (e.g. on a latency
    /// deadline). Returns completed results.
    pub fn flush<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<OnlineResult> {
        let idle = self.batcher.sweep_end();
        self.run_batch(idle, rng)
    }

    /// Serves the batch the batcher released, if it released one. The
    /// forward is synchronous, so the batch is reported done before this
    /// returns: nothing is ever in flight between calls, and `flush`'s
    /// `sweep_end` always fires.
    fn run_batch<R: Rng + ?Sized>(
        &mut self,
        batch: Option<Vec<Pending>>,
        rng: &mut R,
    ) -> Vec<OnlineResult> {
        let Some(pending) = batch else {
            return Vec::new();
        };
        if telemetry::enabled() {
            let g = telemetry::global();
            let wait = g.histogram(catalog::ONLINE_QUEUE_WAIT_SECONDS);
            for p in &pending {
                wait.observe(p.enqueued.elapsed().as_secs_f64());
            }
            g.histogram(catalog::ONLINE_BATCH_SIZE)
                .observe(pending.len() as f64);
            g.counter(catalog::ONLINE_REQUESTS_TOTAL)
                .add(pending.len() as u64);
        }
        let rows: Vec<Tensor> = pending.iter().map(|p| p.features.clone()).collect();
        let batch = Tensor::stack_rows(&rows);
        let logits = self.model.forward(&batch);
        self.batcher.batch_done();
        let cols = logits.dims()[1];
        self.stats.batches += 1;
        self.stats.processed += pending.len() as u64;
        pending
            .into_iter()
            .zip(logits.data().chunks(cols))
            .map(|(p, row)| OnlineResult {
                photo: p.photo,
                label: argmax_of(row),
                // The §5.4 offload: preprocessing happens here, once.
                preprocessed: preprocessed_binary(self.preproc_bytes, rng),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpipe_data::photo::PhotoFactory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server(rng: &mut StdRng, batch: usize) -> OnlineInferenceServer {
        let model = Mlp::new(&[8, 12, 4], 1, rng);
        OnlineInferenceServer::new(model, batch, 256)
    }

    #[test]
    fn batches_fire_when_full() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut srv = server(&mut rng, 3);
        let mut factory = PhotoFactory::new(128);
        for i in 0..2 {
            let out = srv.submit(
                factory.make(i, 0, &mut rng),
                Tensor::randn(&[8], &mut rng),
                &mut rng,
            );
            assert!(out.is_empty(), "fired early");
        }
        assert_eq!(srv.queued(), 2);
        let out = srv.submit(
            factory.make(2, 0, &mut rng),
            Tensor::randn(&[8], &mut rng),
            &mut rng,
        );
        assert_eq!(out.len(), 3);
        assert_eq!(srv.queued(), 0);
        assert_eq!(srv.stats().batches, 1);
        assert_eq!(srv.stats().processed, 3);
    }

    #[test]
    fn flush_serves_partial_batches() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut srv = server(&mut rng, 100);
        let mut factory = PhotoFactory::new(128);
        srv.submit(
            factory.make(0, 0, &mut rng),
            Tensor::randn(&[8], &mut rng),
            &mut rng,
        );
        let out = srv.flush(&mut rng);
        assert_eq!(out.len(), 1);
        assert!(srv.flush(&mut rng).is_empty());
        assert!((srv.stats().mean_batch() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn results_match_direct_model_prediction() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut srv = server(&mut rng, 2);
        let mut factory = PhotoFactory::new(128);
        let f1 = Tensor::randn(&[8], &mut rng);
        let f2 = Tensor::randn(&[8], &mut rng);
        srv.submit(factory.make(0, 0, &mut rng), f1.clone(), &mut rng);
        let out = srv.submit(factory.make(1, 0, &mut rng), f2.clone(), &mut rng);
        let direct = |f: &Tensor| {
            srv.model()
                .forward(&f.reshape(&[1, 8]).expect("row"))
                .argmax()
        };
        assert_eq!(out[0].label, direct(&f1));
        assert_eq!(out[1].label, direct(&f2));
        // Preprocessed binaries come back for the offload path.
        assert_eq!(out[0].preprocessed.len(), 256);
    }

    #[test]
    fn model_update_changes_future_predictions_only() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut srv = server(&mut rng, 1);
        let new_model = Mlp::new(&[8, 12, 4], 1, &mut rng);
        srv.update_model(new_model.clone());
        let mut factory = PhotoFactory::new(128);
        let f = Tensor::randn(&[8], &mut rng);
        let out = srv.submit(factory.make(0, 0, &mut rng), f.clone(), &mut rng);
        assert_eq!(
            out[0].label,
            new_model
                .forward(&f.reshape(&[1, 8]).expect("row"))
                .argmax()
        );
    }

    fn batcher(max_batch: usize) -> Batcher<u32> {
        Batcher::new(max_batch)
    }

    #[test]
    fn batcher_idle_item_fires_at_sweep_end() {
        let mut b = batcher(4);
        assert_eq!(b.sweep_end(), None, "nothing pending, nothing to fire");
        assert_eq!(b.push(1), None);
        assert_eq!(b.push(2), None);
        assert_eq!(b.sweep_end(), Some(vec![1, 2]));
        assert_eq!((b.pending(), b.in_flight()), (0, 1));
        b.batch_done();
        assert_eq!(b.in_flight(), 0);
        assert_eq!(b.sweep_end(), None);
    }

    #[test]
    fn batcher_coalesces_behind_the_batch_in_flight() {
        let mut b = batcher(4);
        b.push(1);
        assert_eq!(b.sweep_end(), Some(vec![1]));
        // Arrivals while the first batch runs wait for it, sweep after
        // sweep, and leave together at the end of the sweep in which it
        // completes — with whatever that sweep read.
        assert_eq!(b.push(2), None);
        assert_eq!(b.sweep_end(), None);
        assert_eq!(b.push(3), None);
        assert_eq!(b.sweep_end(), None);
        b.batch_done();
        assert_eq!(b.push(4), None);
        assert_eq!(b.sweep_end(), Some(vec![2, 3, 4]));
        assert_eq!((b.pending(), b.in_flight()), (0, 1));
    }

    #[test]
    fn batcher_full_batch_fires_whatever_is_in_flight() {
        let mut b = batcher(2);
        b.push(1);
        assert_eq!(b.sweep_end(), Some(vec![1]));
        assert_eq!(b.push(2), None);
        assert_eq!(b.push(3), Some(vec![2, 3]), "max_batch overrides the wait");
        assert_eq!(b.in_flight(), 2);
        // What trails the full batch waits for *both* to finish.
        assert_eq!(b.push(4), None);
        b.batch_done();
        assert_eq!(b.sweep_end(), None);
        b.batch_done();
        assert_eq!(b.sweep_end(), Some(vec![4]));
        // A zero max_batch degrades to one-row batches, not a stall.
        let mut z = batcher(0);
        assert_eq!(z.push(9), Some(vec![9]));
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_feature_width_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut srv = server(&mut rng, 1);
        let mut factory = PhotoFactory::new(128);
        srv.submit(
            factory.make(0, 0, &mut rng),
            Tensor::randn(&[5], &mut rng),
            &mut rng,
        );
    }
}
