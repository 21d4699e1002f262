//! The PipeStore: a storage server with a commodity accelerator.
//!
//! A PipeStore owns a shard of the photo pool. It stores, per photo, the
//! raw blob and a DEFLATE-compressed preprocessed binary (§5.4's
//! offload-and-compress design), and runs near-data work with its local
//! model replica: feature extraction for FT-DMP and label extraction for
//! offline inference.

use crate::npe::engine::{self, EngineConfig, PipelineStats};
use crate::placement::PlacementMap;
use crate::rpc::wire::PhotoRecord;
use dnn::{Linear, Mlp};
use ndpipe_data::deflate;
use ndpipe_data::{LabeledDataset, Photo, PhotoId};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::catalog;
use tensor::{default_math_policy, MathPolicy, Tensor};

/// Shard count of the photo map. Sixteen is plenty to decorrelate the
/// event-driven server's worker pool (a handful of threads) while
/// keeping the whole-map snapshot cheap.
const PHOTO_SHARDS: usize = 16;

/// One bucket: `(insertion seq, photo)` pairs under their own lock.
type Bucket = RwLock<Vec<(u64, StoredPhoto)>>;

/// The photo/sidecar map, sharded `RwLock`-per-bucket so concurrent
/// readers (offline inference, persistence, scrapes) never contend with
/// each other and writers only serialize within one bucket. Every entry
/// carries a monotone insertion sequence number so whole-map snapshots
/// reproduce the exact insertion order the old `Vec` gave — ordering
/// that offline inference relies on to align photos with shard rows.
#[derive(Debug)]
struct PhotoShards {
    buckets: Box<[Bucket]>,
    next_seq: AtomicU64,
    count: AtomicUsize,
}

impl PhotoShards {
    fn new() -> Self {
        PhotoShards {
            buckets: (0..PHOTO_SHARDS).map(|_| RwLock::new(Vec::new())).collect(),
            next_seq: AtomicU64::new(0),
            count: AtomicUsize::new(0),
        }
    }

    fn bucket(&self, id: PhotoId) -> &RwLock<Vec<(u64, StoredPhoto)>> {
        // Modulo keeps the index in range for any id; the expect can
        // never fire with a non-empty bucket array.
        &self.buckets[id.0 as usize % self.buckets.len()]
    }

    fn insert(&self, stored: StoredPhoto) {
        // The sequence number only has to be unique and monotone per
        // insert; ordering relative to other memory is established by
        // the bucket lock below.
        // ndlint: allow(relaxed, reason = "unique ticket draw; publication happens under the bucket lock")
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.bucket(stored.photo.id).write().push((seq, stored));
        // ndlint: allow(relaxed, reason = "pure tally; readers only need an approximate count")
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self, id: PhotoId) -> Option<StoredPhoto> {
        self.bucket(id)
            .read()
            .iter()
            .find(|(_, p)| p.photo.id == id)
            .map(|(_, p)| p.clone())
    }

    fn len(&self) -> usize {
        // ndlint: allow(relaxed, reason = "pure tally; nothing is published through it")
        self.count.load(Ordering::Relaxed)
    }

    /// All photos in insertion order (sorted by sequence number).
    fn snapshot(&self) -> Vec<StoredPhoto> {
        let mut all: Vec<(u64, StoredPhoto)> = Vec::with_capacity(self.len());
        for b in self.buckets.iter() {
            all.extend(b.read().iter().cloned());
        }
        all.sort_unstable_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, p)| p).collect()
    }

    /// Drains every bucket, returning the photos in insertion order.
    fn take_all(&self) -> Vec<StoredPhoto> {
        let mut all: Vec<(u64, StoredPhoto)> = Vec::with_capacity(self.len());
        for b in self.buckets.iter() {
            all.append(&mut b.write());
        }
        // ndlint: allow(relaxed, reason = "pure tally reset under every bucket's write lock")
        self.count.store(0, Ordering::Relaxed);
        all.sort_unstable_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, p)| p).collect()
    }
}

/// What a cached feature slice was computed under. A slice is served
/// only while the store's current stamp equals the one it was stored
/// with: the same prefix epoch, the same version counter on every
/// weight-freeze layer (a `train_step` through [`PipeStore::model_mut`]
/// that reaches the prefix bumps one) and the same [`MathPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct PrefixStamp {
    epoch: u64,
    layer_versions: Vec<u64>,
    math: MathPolicy,
}

/// One cached slice: exactly the rows `slice_bounds` produced for
/// placement node `node`, forwarded in engine batches of `batch` rows.
/// The whole range is the key, not single rows, because `Int8` quantizes
/// activations per batch: a row's features depend on the batch it sat
/// in, so only the same slice cut the same way is bit-identical to
/// recomputing under every policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SliceKey {
    node: u64,
    rows: Range<usize>,
    batch: usize,
}

/// Frozen-prefix features this store already extracted, all under one
/// [`PrefixStamp`].
#[derive(Debug, Default)]
struct FeatureCache {
    stamp: Option<PrefixStamp>,
    slices: HashMap<SliceKey, (Tensor, Vec<usize>)>,
    /// Feature rows held, summed over `slices`.
    rows: usize,
}

impl FeatureCache {
    fn get(&self, stamp: &PrefixStamp, key: &SliceKey) -> Option<(Tensor, Vec<usize>)> {
        if self.stamp.as_ref() != Some(stamp) {
            return None;
        }
        self.slices.get(key).cloned()
    }

    /// Keeps one freshly extracted slice. A new stamp, or an insert that
    /// would hold more than `max_rows` rows, clears the cache first.
    fn insert(
        &mut self,
        stamp: PrefixStamp,
        key: SliceKey,
        slice: (Tensor, Vec<usize>),
        max_rows: usize,
    ) {
        if self.stamp.as_ref() != Some(&stamp) || self.rows + slice.1.len() > max_rows {
            self.slices.clear();
            self.rows = 0;
            self.stamp = Some(stamp);
        }
        self.rows += slice.1.len();
        if let Some((_, old)) = self.slices.insert(key, slice) {
            self.rows -= old.len();
        }
    }

    /// Drops every slice of `node`'s shard.
    fn forget_node(&mut self, node: u64) {
        self.slices.retain(|k, _| k.node != node);
        self.rows = self.slices.values().map(|(_, labels)| labels.len()).sum();
    }
}

/// Accumulated NPE engine activity on one store: the most recent run's
/// [`PipelineStats`] plus lifetime totals. One source of truth for both
/// the Fig 12 bench and the telemetry exporters.
#[derive(Debug, Clone, Default)]
pub struct NpeActivity {
    /// Stats of the most recent pipeline run, if any ran.
    pub last: Option<PipelineStats>,
    /// Number of pipeline runs.
    pub runs: u64,
    /// Items that left the FE stage, summed over runs.
    pub items: u64,
    /// Wall-clock seconds, summed over runs.
    pub wall_secs: f64,
}

/// One stored photo entry: raw blob plus the compressed preprocessed
/// binary sidecar.
#[derive(Debug, Clone)]
pub struct StoredPhoto {
    /// The photo and its metadata.
    pub photo: Photo,
    /// DEFLATE-compressed preprocessed binary.
    pub compressed_binary: Vec<u8>,
    /// Uncompressed preprocessed-binary size, bytes (for ratio stats).
    pub preproc_bytes: usize,
}

/// A storage server holding a photo shard and a weight-freeze model
/// replica for near-data processing.
#[derive(Debug)]
pub struct PipeStore {
    id: usize,
    shard: LabeledDataset,
    photos: PhotoShards,
    model: Option<Mlp>,
    /// The published immutable model snapshot, keyed on
    /// [`Mlp::weights_version`]: readers grab an `Arc` clone without
    /// touching (or blocking) the mutable replica. Re-published lazily
    /// whenever the version diverges, so Check-N-Run delta application
    /// invalidates it automatically.
    published: RwLock<Option<(u64, Arc<Mlp>)>>,
    /// The placement map this store last accepted (epoch-monotone).
    placement: RwLock<Option<PlacementMap>>,
    /// Replica copies of *other* nodes' training shards, keyed by the
    /// owning placement node id. FT-DMP reroutes a dead peer's
    /// extraction assignment here ([`PipeStore::shard_for`]).
    replica_shards: BTreeMap<u64, LabeledDataset>,
    metrics: Arc<telemetry::Registry>,
    npe: Mutex<NpeActivity>,
    /// Artificial per-extraction sleep, for straggler simulation in
    /// benches and soaks ([`PipeStore::set_extract_delay`]).
    extract_delay: Option<std::time::Duration>,
    /// The [`MathPolicy`] every FE forward on this store runs under.
    /// Defaults to the process default (`NDPIPE_MATH` / `--math`);
    /// [`PipeStore::set_math_policy`] overrides per store so mixed
    /// fleets can be simulated in one process. Reported over RPC in
    /// `ShardInfo` so the Tuner can audit fleet uniformity.
    math: MathPolicy,
    /// Bumped by [`PipeStore::install_model`] whenever the incoming
    /// weight-freeze prefix differs bitwise from the held one (and the
    /// new prefix's [`Mlp::prefix_digest`] is computed there). Layer
    /// version counters alone cannot tell two installed prefixes apart:
    /// every freshly decoded model starts at the same counts.
    prefix_epoch: u64,
    /// FT-DMP features of every slice extracted under the current
    /// prefix, so a later extraction of the same slice is a read.
    feature_cache: parking_lot::Mutex<FeatureCache>,
}

impl PipeStore {
    /// Creates a PipeStore over a data shard (no photos attached yet).
    pub fn new(id: usize, shard: LabeledDataset) -> Self {
        PipeStore {
            id,
            shard,
            photos: PhotoShards::new(),
            model: None,
            published: RwLock::new(None),
            placement: RwLock::new(None),
            replica_shards: BTreeMap::new(),
            metrics: Arc::new(telemetry::Registry::new()),
            npe: Mutex::new(NpeActivity::default()),
            extract_delay: None,
            math: default_math_policy(),
            prefix_epoch: 0,
            feature_cache: parking_lot::Mutex::new(FeatureCache::default()),
        }
    }

    /// The store's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The [`MathPolicy`] this store's feature-extraction paths use.
    pub fn math_policy(&self) -> MathPolicy {
        self.math
    }

    /// Overrides the FE [`MathPolicy`] for this store only (the
    /// constructor picks up the process default). Takes effect on the
    /// next extraction (features cached under another policy are not
    /// served); results under a different policy than before are not
    /// comparable bit-for-bit.
    pub fn set_math_policy(&mut self, policy: MathPolicy) {
        self.math = policy;
    }

    /// Makes every feature-extraction call sleep for `delay` *per
    /// extracted row* first — a deliberate straggler for pipeline benches
    /// and the slow-peer soak (`None` restores full speed). The penalty
    /// scales with rows, not calls, so micro-batching a run does not
    /// change the total sleep but stolen rows escape it entirely.
    /// Results are unaffected; only wall-clock changes.
    pub fn set_extract_delay(&mut self, delay: Option<std::time::Duration>) {
        self.extract_delay = delay;
    }

    /// This store's own metric registry. Each PipeStore keeps local
    /// metrics (rather than the process [`telemetry::global`] registry)
    /// so co-located stores — common in tests and the simulated cluster —
    /// stay distinguishable, and the Tuner's scrape can label each
    /// store's snapshot by peer.
    pub fn metrics(&self) -> &Arc<telemetry::Registry> {
        &self.metrics
    }

    /// Stats of the most recent NPE pipeline run on this store, if any.
    pub fn last_pipeline_stats(&self) -> Option<PipelineStats> {
        self.npe.lock().expect("npe activity lock").last.clone()
    }

    /// Accumulated NPE engine activity (runs, items, wall time).
    pub fn npe_activity(&self) -> NpeActivity {
        self.npe.lock().expect("npe activity lock").clone()
    }

    /// Folds one pipeline run into the activity record and the metric
    /// registry. Metric recording is skipped while telemetry is
    /// disabled; the activity record always updates (it feeds the Fig 12
    /// bench, not just observability).
    fn record_npe(&self, stats: &PipelineStats) {
        {
            let mut acc = self.npe.lock().expect("npe activity lock");
            acc.runs += 1;
            acc.items += stats.fe.items as u64;
            acc.wall_secs += stats.wall_secs;
            acc.last = Some(stats.clone());
        }
        if !telemetry::enabled() {
            return;
        }
        let m = &self.metrics;
        for (name, s) in [
            ("load", stats.load),
            ("decode", stats.decode),
            ("fe", stats.fe),
        ] {
            m.histogram_with(catalog::NPE_STAGE_BUSY_SECONDS, &[("stage", name)])
                .observe(s.busy_secs);
            m.counter_with(catalog::NPE_STAGE_ITEMS_TOTAL, &[("stage", name)])
                .add(s.items as u64);
        }
        let occ = stats.occupancies();
        for (name, o) in [("load", occ[0]), ("decode", occ[1]), ("fe", occ[2])] {
            m.gauge_with(catalog::NPE_STAGE_OCCUPANCY, &[("stage", name)])
                .set(o);
        }
        m.counter(catalog::NPE_BATCHES_TOTAL)
            .add(stats.batches as u64);
        m.histogram(catalog::NPE_RUN_WALL_SECONDS)
            .observe(stats.wall_secs);
        for (queue, q) in [("in", stats.in_queue), ("mid", stats.mid_queue)] {
            m.gauge_with(catalog::NPE_QUEUE_DEPTH_MEAN, &[("queue", queue)])
                .set(q.mean());
            m.gauge_with(catalog::NPE_QUEUE_DEPTH_MAX, &[("queue", queue)])
                .set(q.depth_max as f64);
        }
        m.counter_with(catalog::NPE_STAGE_ERRORS_TOTAL, &[("stage", "decode")])
            .add(stats.stage_errors as u64);
    }

    /// Number of training examples in the local shard.
    pub fn shard_len(&self) -> usize {
        self.shard.len()
    }

    /// The local training shard.
    pub fn shard(&self) -> &LabeledDataset {
        &self.shard
    }

    /// Replaces the local shard (e.g. when new uploads land here) and
    /// drops the features cached from the old one.
    pub fn set_shard(&mut self, shard: LabeledDataset) {
        self.shard = shard;
        self.feature_cache.get_mut().forget_node(self.id as u64);
    }

    /// The placement map this store currently holds (a clone).
    pub fn placement(&self) -> Option<PlacementMap> {
        let _w = crate::sanitize::order(crate::sanitize::RANK_PLACEMENT, "placement");
        self.placement.read().clone()
    }

    /// Accepts an epoch-numbered placement map. Epochs are monotone: a
    /// map older than the one held is refused, so a delayed publish can
    /// never roll placement backwards. Re-installing the held epoch is
    /// an idempotent success.
    ///
    /// # Errors
    ///
    /// Returns the held (newer) epoch when `map` is stale.
    pub fn install_placement(&self, map: PlacementMap) -> Result<u64, u64> {
        let w = crate::sanitize::order(crate::sanitize::RANK_PLACEMENT, "placement");
        let mut guard = self.placement.write();
        if let Some(held) = guard.as_ref() {
            if map.epoch() < held.epoch() {
                return Err(held.epoch());
            }
        }
        let epoch = map.epoch();
        *guard = Some(map);
        drop(guard);
        #[allow(
            clippy::drop_non_drop,
            reason = "the witness is inert unless built with --cfg ndpipe_sanitize; dropping it ends the witnessed region either way"
        )]
        drop(w);
        if telemetry::enabled() {
            self.metrics
                .gauge(catalog::PLACEMENT_EPOCH)
                .set(epoch as f64);
        }
        Ok(epoch)
    }

    /// Attaches a replica copy of another node's training shard, so
    /// this store can stand in for `node` during FT-DMP extraction.
    /// Features cached from a shard it replaces are dropped.
    pub fn add_replica_shard(&mut self, node: u64, shard: LabeledDataset) {
        self.replica_shards.insert(node, shard);
        self.feature_cache.get_mut().forget_node(node);
    }

    /// Placement node ids whose shards this store replicates.
    pub fn replica_nodes(&self) -> Vec<u64> {
        self.replica_shards.keys().copied().collect()
    }

    /// The training shard for placement node `node`: the store's own
    /// shard when `node` is its id, otherwise an attached replica.
    pub fn shard_for(&self, node: u64) -> Option<&LabeledDataset> {
        if node == self.id as u64 {
            Some(&self.shard)
        } else {
            self.replica_shards.get(&node)
        }
    }

    /// Number of stored photos.
    pub fn photo_count(&self) -> usize {
        self.photos.len()
    }

    /// Stores a photo: compresses its preprocessed binary (shipped by the
    /// inference server under the §5.4 offload design) and keeps both.
    /// Takes `&self` — ingest lands in a sharded map, so concurrent
    /// stores (and concurrent readers) don't serialize on the store.
    pub fn store_photo(&self, photo: Photo, preprocessed: Vec<u8>) {
        let compressed = deflate::compress_chunked(&preprocessed, deflate::DEFAULT_CHUNK_SIZE);
        if telemetry::enabled() {
            self.metrics.counter(catalog::STORE_PHOTOS_TOTAL).inc();
            self.metrics
                .counter(catalog::STORE_SIDECAR_BYTES_TOTAL)
                .add(compressed.len() as u64);
            self.metrics
                .counter(catalog::STORE_PREPROC_BYTES_TOTAL)
                .add(preprocessed.len() as u64);
        }
        self.photos.insert(StoredPhoto {
            photo,
            compressed_binary: compressed,
            preproc_bytes: preprocessed.len(),
        });
    }

    /// Looks up a stored photo by id (an owned clone — the entry lives
    /// behind a shard lock that must not be held across caller code).
    pub fn photo(&self, id: PhotoId) -> Option<StoredPhoto> {
        self.photos.get(id)
    }

    /// Adopts one replicated photo record off the wire: the sidecar
    /// arrives already chunked-DEFLATE compressed, so no re-preprocess
    /// or re-compress happens here. Idempotent — a record whose id is
    /// already stored is skipped (rebalance may legitimately retry),
    /// returning `false`.
    pub fn store_photo_record(&self, rec: PhotoRecord) -> bool {
        let id = PhotoId(rec.id);
        if self.photos.get(id).is_some() {
            return false;
        }
        if telemetry::enabled() {
            self.metrics.counter(catalog::STORE_PHOTOS_TOTAL).inc();
            self.metrics
                .counter(catalog::STORE_SIDECAR_BYTES_TOTAL)
                .add(rec.sidecar.len() as u64);
            self.metrics
                .counter(catalog::STORE_PREPROC_BYTES_TOTAL)
                .add(rec.preproc_bytes as u64);
        }
        self.photos.insert(StoredPhoto {
            photo: Photo {
                id,
                class: rec.class as usize,
                day: rec.day as usize,
                blob: bytes::Bytes::from(rec.blob),
            },
            compressed_binary: rec.sidecar,
            preproc_bytes: rec.preproc_bytes as usize,
        });
        true
    }

    /// The wire-shaped record for one stored photo, for replication and
    /// rebalance reads.
    pub fn photo_record(&self, id: PhotoId) -> Option<PhotoRecord> {
        let stored = self.photos.get(id)?;
        Some(PhotoRecord {
            id: stored.photo.id.0,
            class: stored.photo.class as u32,
            day: stored.photo.day as u32,
            preproc_bytes: stored.preproc_bytes as u32,
            blob: stored.photo.blob.to_vec(),
            sidecar: stored.compressed_binary,
        })
    }

    /// Ids of every stored photo, ascending.
    pub fn photo_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .photos
            .snapshot()
            .into_iter()
            .map(|p| p.photo.id.0)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Mutates one stored photo in place under its shard lock, returning
    /// the closure's result (`None` if the id is unknown). Test and
    /// repair paths use this where they previously indexed the photo
    /// `Vec` directly.
    pub fn with_photo_mut<R>(
        &self,
        id: PhotoId,
        f: impl FnOnce(&mut StoredPhoto) -> R,
    ) -> Option<R> {
        let _w = crate::sanitize::order(crate::sanitize::RANK_PHOTOS, "photos");
        let mut bucket = self.photos.bucket(id).write();
        bucket
            .iter_mut()
            .find(|(_, p)| p.photo.id == id)
            .map(|(_, p)| f(p))
    }

    /// The stored photos, in insertion order (an owned snapshot).
    pub fn photos(&self) -> Vec<StoredPhoto> {
        self.photos.snapshot()
    }

    /// Removes and returns all stored photos (used when resharding moves
    /// a server's archive to its replacement).
    pub fn take_photos(&mut self) -> Vec<StoredPhoto> {
        self.photos.take_all()
    }

    /// Adopts already-compressed photos (the counterpart of
    /// [`PipeStore::take_photos`]).
    pub fn adopt_photos(&mut self, photos: Vec<StoredPhoto>) {
        for p in photos {
            self.photos.insert(p);
        }
    }

    /// Average storage overhead of the compressed sidecars relative to
    /// the raw blobs (the paper's 17.5 % figure before compression).
    ///
    /// Returns `None` when no photos are stored.
    pub fn sidecar_overhead(&self) -> Option<f64> {
        let photos = self.photos.snapshot();
        if photos.is_empty() {
            return None;
        }
        let raw: usize = photos.iter().map(|p| p.photo.size()).sum();
        let side: usize = photos.iter().map(|p| p.compressed_binary.len()).sum();
        Some(side as f64 / raw as f64)
    }

    /// Installs (or replaces) the local model replica and immediately
    /// publishes its immutable snapshot for lock-free readers.
    ///
    /// When the incoming weight-freeze prefix equals the held one bit for
    /// bit, only the incoming classifier head is taken: the held prefix
    /// layers stay, packed panels included, and so do the features
    /// cached under them. Any other prefix starts a new prefix epoch and
    /// has its digest computed, once, for [`PipeStore::install_head`].
    pub fn install_model(&mut self, model: Mlp) {
        let replaced = match self.model.as_mut() {
            Some(held) => held.adopt_head(model).err(),
            None => Some(model),
        };
        if let Some(model) = replaced {
            self.prefix_epoch += 1;
            model.prefix_digest();
            self.model = Some(model);
        }
        self.republish_model();
    }

    /// Installs a classifier head on the held prefix, which stays with
    /// its prefix epoch and cached features, and publishes the result.
    /// The outcome equals [`PipeStore::install_model`] of the model the
    /// head was cut from, as long as equal digests mean equal prefixes.
    ///
    /// # Errors
    ///
    /// Refuses, changing nothing, when no model is installed, the held
    /// prefix's digest is not `prefix_digest`, or the head's input width
    /// is not the held model's feature width.
    pub fn install_head(&mut self, prefix_digest: u64, head: Mlp) -> Result<(), String> {
        let Some(held) = self.model.as_mut() else {
            return Err("no model installed".to_string());
        };
        let held_digest = held.prefix_digest();
        if held_digest != prefix_digest {
            return Err(format!(
                "prefix digest {prefix_digest:#018x} is not the held {held_digest:#018x}"
            ));
        }
        let width = held.feature_dim();
        if let Err(head) = held.install_head(head) {
            return Err(format!(
                "head input width {} is not the feature width {width}",
                head.input_dim()
            ));
        }
        self.republish_model();
        Ok(())
    }

    /// The local model replica, if one has been distributed.
    pub fn model(&self) -> Option<&Mlp> {
        self.model.as_ref()
    }

    /// Mutable model access (for applying Check-N-Run deltas). Mutation
    /// bumps the weight version, so the next [`PipeStore::model_snapshot`]
    /// republishes automatically; call [`PipeStore::republish_model`] to
    /// do it eagerly. A mutation that reaches the weight-freeze prefix
    /// also retires the cached features.
    pub fn model_mut(&mut self) -> Option<&mut Mlp> {
        self.model.as_mut()
    }

    /// The version key of the published snapshot path: the replica's
    /// current [`Mlp::weights_version`], `None` without a model.
    pub fn model_version(&self) -> Option<u64> {
        self.model.as_ref().map(Mlp::weights_version)
    }

    /// An immutable `Arc` snapshot of the model replica, arc-swap style:
    /// readers clone the `Arc` and run forwards without holding any
    /// store lock. The snapshot is keyed on [`Mlp::weights_version`] —
    /// if the replica changed since the last publication (install or
    /// delta apply), a fresh snapshot is published first, so readers can
    /// never observe half-applied weights.
    pub fn model_snapshot(&self) -> Option<Arc<Mlp>> {
        let model = self.model.as_ref()?;
        let v = model.weights_version();
        let _w = crate::sanitize::order(crate::sanitize::RANK_PUBLISHED, "published");
        if let Some((pv, arc)) = &*self.published.read() {
            if *pv == v {
                return Some(Arc::clone(arc));
            }
        }
        let arc = Arc::new(model.clone());
        *self.published.write() = Some((v, Arc::clone(&arc)));
        Some(arc)
    }

    /// Eagerly (re)publishes the model snapshot at the replica's current
    /// weight version (or clears it when no model is installed). The RPC
    /// server calls this right after applying a delta so concurrent
    /// `Infer` traffic flips to the new weights at a frame boundary.
    pub fn republish_model(&self) {
        let _w = crate::sanitize::order(crate::sanitize::RANK_PUBLISHED, "published");
        *self.published.write() = self
            .model
            .as_ref()
            .map(|m| (m.weights_version(), Arc::new(m.clone())));
    }

    /// FT-DMP Store-stage: runs the weight-freeze prefix over (a slice
    /// of) the local shard and returns `(features, labels)` to ship to
    /// the Tuner. Serial reference implementation — one forward over the
    /// whole slice, never cached; see
    /// [`PipeStore::extract_features_batched`] for the pipelined
    /// production path.
    ///
    /// # Panics
    ///
    /// Panics if no model is installed or the range is out of bounds.
    pub fn extract_features(&self, range: std::ops::Range<usize>) -> (Tensor, Vec<usize>) {
        let model = self.model.as_ref().expect("no model installed");
        assert!(range.end <= self.shard.len(), "range out of bounds");
        let idx: Vec<usize> = range.collect();
        let slice = self.shard.select(&idx);
        let features = model.features_with(slice.features(), self.math);
        (features, slice.labels().to_vec())
    }

    /// [`PipeStore::extract_features`] through the threaded NPE engine:
    /// rows stream through the 3-stage pipeline and the FE stage runs one
    /// batched forward per [`EngineConfig::batch`] rows. Features and
    /// labels are bit-identical to the serial path at any worker count.
    ///
    /// The first extraction of a slice keeps its result; extracting the
    /// same range with the same batch size again, while the prefix, its
    /// layer versions, the math policy and the shard are unchanged,
    /// returns those exact bytes without a forward (and with empty
    /// [`PipelineStats`]). The per-row straggler delay applies either way.
    ///
    /// # Panics
    ///
    /// Panics if no model is installed or the range is out of bounds.
    pub fn extract_features_batched(
        &self,
        range: Range<usize>,
        cfg: &EngineConfig,
    ) -> ((Tensor, Vec<usize>), PipelineStats) {
        self.extract_on(self.id as u64, &self.shard, range, cfg)
    }

    /// [`PipeStore::extract_features_batched`] over the *replica shard*
    /// of placement node `node` — the mid-sweep reroute path: a
    /// surviving replica extracts a dead peer's assignment with its own
    /// installed model, bit-identical to what the dead peer would have
    /// produced. `None` when this store holds no shard for `node`.
    ///
    /// # Panics
    ///
    /// Panics if no model is installed or the range is out of bounds.
    pub fn extract_features_batched_for(
        &self,
        node: u64,
        range: Range<usize>,
        cfg: &EngineConfig,
    ) -> Option<((Tensor, Vec<usize>), PipelineStats)> {
        let shard = self.shard_for(node)?;
        Some(self.extract_on(node, shard, range, cfg))
    }

    /// The one extraction path: a cache read when this slice was already
    /// extracted under the current prefix, else the NPE engine, whose
    /// result is then cached.
    fn extract_on(
        &self,
        node: u64,
        shard: &LabeledDataset,
        range: Range<usize>,
        cfg: &EngineConfig,
    ) -> ((Tensor, Vec<usize>), PipelineStats) {
        if let Some(delay) = self.extract_delay {
            // Straggler simulation only; never set on production paths.
            // Per *row*, so the penalty models a slow device: splitting a
            // run into micro-batches does not change the total sleep, but
            // every row stolen away by a healthy replica escapes it. It
            // runs before the cache lookup, so a slow store stays slow.
            std::thread::sleep(delay * range.len() as u32);
        }
        let model = self.model.as_ref().expect("no model installed");
        assert!(range.end <= shard.len(), "range out of bounds");
        let stamp = PrefixStamp {
            epoch: self.prefix_epoch,
            layer_versions: model.feature_layers().iter().map(Linear::version).collect(),
            math: self.math,
        };
        let key = SliceKey {
            node,
            rows: range.clone(),
            batch: cfg.batch,
        };
        let cached = {
            let _w = crate::sanitize::order(crate::sanitize::RANK_FEATURES, "feature_cache");
            self.feature_cache.lock().get(&stamp, &key)
        };
        self.count_feature_lookup(cached.is_some());
        if let Some(slice) = cached {
            return (slice, PipelineStats::default());
        }
        let feature_dim = model.feature_dim();
        let (pairs, stats) = engine::run_pipeline(
            cfg,
            range,
            // Decode stage: fetch the (already preprocessed) row — the
            // FT-DMP path has no decompression work by design (§5.4's
            // fine-tune task reads preprocessed binaries).
            |_, i| (shard.features().row(i), shard.labels()[i]),
            |batch: Vec<(Tensor, usize)>| {
                let (rows, labels): (Vec<Tensor>, Vec<usize>) = batch.into_iter().unzip();
                let x = Tensor::stack_rows(&rows);
                let f = model.features_with(&x, self.math);
                labels
                    .into_iter()
                    .enumerate()
                    .map(|(r, l)| (f.row(r), l))
                    .collect()
            },
        );
        let (rows, labels): (Vec<Tensor>, Vec<usize>) = pairs.into_iter().unzip();
        let features = if rows.is_empty() {
            Tensor::zeros(&[0, feature_dim])
        } else {
            Tensor::stack_rows(&rows)
        };
        self.record_npe(&stats);
        // Never more cached rows than shard rows held: a fixed slice
        // layout fits exactly, any other layout clears and refills.
        let held_rows = self.shard.len()
            + self
                .replica_shards
                .values()
                .map(LabeledDataset::len)
                .sum::<usize>();
        let slice = (features.clone(), labels.clone());
        {
            let _w = crate::sanitize::order(crate::sanitize::RANK_FEATURES, "feature_cache");
            self.feature_cache
                .lock()
                .insert(stamp, key, slice, held_rows);
        }
        ((features, labels), stats)
    }

    /// Counts one feature-cache lookup on the store's registry.
    fn count_feature_lookup(&self, hit: bool) {
        if !telemetry::enabled() {
            return;
        }
        if hit {
            self.metrics
                .counter(catalog::FEATURE_CACHE_HITS_TOTAL)
                .inc();
        } else {
            self.metrics
                .counter(catalog::FEATURE_CACHE_MISSES_TOTAL)
                .inc();
        }
    }

    /// Persists every stored photo (raw blob + compressed sidecar) into a
    /// Haystack-style [`objstore::ObjectStore`]. Keys are shard-aware
    /// ([`objstore::keys`]): blobs under `keys::blob(store_id, photo)`,
    /// sidecars under `keys::sidecar(store_id, photo)` with the
    /// uncompressed length prepended; [`PipeStore::restore_photos`]
    /// inverts this. With replication the same `ObjectStore` can hold
    /// several stores' archives without key collisions.
    ///
    /// # Errors
    ///
    /// Propagates object-store I/O errors; a photo id outside the
    /// packed-key budget is [`objstore::StoreError::KeyOutOfRange`].
    pub fn persist_photos(
        &self,
        store: &mut objstore::ObjectStore,
    ) -> Result<usize, objstore::StoreError> {
        let shard_id = self.id as u64;
        let photos = self.photos.snapshot();
        for p in &photos {
            store.put(objstore::keys::blob(shard_id, p.photo.id.0)?, &p.photo.blob)?;
            let mut sidecar = Vec::with_capacity(4 + p.compressed_binary.len());
            sidecar.extend_from_slice(&(p.preproc_bytes as u32).to_le_bytes());
            sidecar.extend_from_slice(&p.compressed_binary);
            store.put(objstore::keys::sidecar(shard_id, p.photo.id.0)?, &sidecar)?;
        }
        store.sync()?;
        Ok(photos.len())
    }

    /// Reloads photos previously written by [`PipeStore::persist_photos`],
    /// replacing the in-memory photo list. Only keys in this store's
    /// shard keyspace are considered, so co-located archives of other
    /// stores are left alone. Photo class/day metadata is recovered from
    /// the synthetic blob header.
    ///
    /// # Errors
    ///
    /// Propagates object-store errors; corrupt sidecars are an error.
    pub fn restore_photos(
        &mut self,
        store: &mut objstore::ObjectStore,
    ) -> Result<usize, objstore::StoreError> {
        let shard_id = self.id as u64;
        let mut blob_keys: Vec<u64> = store
            .keys()
            .filter(|&k| objstore::keys::is_blob(k) && objstore::keys::shard_of(k) == shard_id)
            .collect();
        blob_keys.sort_unstable();
        let mut restored = Vec::with_capacity(blob_keys.len());
        for key in blob_keys {
            let Some(blob) = store.get(key)? else {
                continue;
            };
            let Some(sidecar) = store.get(key + 1)? else {
                continue; // blob without sidecar: skip
            };
            if blob.len() < 16 || sidecar.len() < 4 {
                return Err(objstore::StoreError::Corrupt {
                    offset: 0,
                    reason: "photo record too short",
                });
            }
            let class = u32::from_le_bytes(blob[4..8].try_into().expect("fixed")) as usize;
            let day = u32::from_le_bytes(blob[8..12].try_into().expect("fixed")) as usize;
            let preproc_bytes =
                u32::from_le_bytes(sidecar[..4].try_into().expect("fixed")) as usize;
            restored.push(StoredPhoto {
                photo: Photo {
                    id: PhotoId(objstore::keys::photo_of(key)),
                    class,
                    day,
                    blob: bytes::Bytes::from(blob),
                },
                compressed_binary: sidecar[4..].to_vec(),
                preproc_bytes,
            });
        }
        self.photos.take_all();
        for p in restored {
            self.photos.insert(p);
        }
        Ok(self.photos.len())
    }

    /// Offline inference over every stored photo: decompresses each
    /// preprocessed binary (integrity-checked), runs the full local
    /// model, and returns `(photo id, label)` pairs — the only bytes that
    /// leave the server.
    ///
    /// Runs through the threaded NPE engine with the default
    /// [`EngineConfig`]; results are bit-identical to
    /// [`PipeStore::offline_inference_serial`]. Corrupt sidecars are
    /// dropped and counted, not panicked on.
    ///
    /// # Panics
    ///
    /// Panics if no model is installed.
    pub fn offline_inference(&self) -> Vec<(PhotoId, usize)> {
        self.offline_inference_pipelined(&EngineConfig::default()).0
    }

    /// Serial reference implementation of offline inference: load,
    /// decompress and classify one photo at a time, one forward per
    /// photo. Kept as the ground truth the pipelined engine is checked
    /// against (and as the baseline the NPE bench compares to).
    ///
    /// # Panics
    ///
    /// Panics if no model is installed or a sidecar fails to decompress.
    pub fn offline_inference_serial(&self) -> Vec<(PhotoId, usize)> {
        let model = self.model.as_ref().expect("no model installed");
        let photos = self.photos.snapshot();
        let mut out = Vec::with_capacity(photos.len());
        for (i, stored) in photos.iter().enumerate() {
            let bin = deflate::decompress_framed(&stored.compressed_binary)
                .expect("stored sidecar is valid deflate");
            assert_eq!(bin.len(), stored.preproc_bytes, "sidecar corrupted");
            // Classify the corresponding shard row (photos and shard rows
            // are aligned by construction in `system`).
            let row = i % self.shard.len().max(1);
            let x = self.shard.features().row(row);
            let logits = model.forward(&x.reshape(&[1, x.len()]).expect("row reshape"));
            out.push((stored.photo.id, logits.argmax()));
        }
        out
    }

    /// Offline inference through the threaded 3-stage NPE engine (§5.4):
    /// a loader streams compressed sidecars, the decode pool inflates
    /// them in parallel, and the FE&Cl stage classifies whole batches
    /// with a single forward pass each. Returns the `(photo id, label)`
    /// pairs plus per-stage pipeline statistics.
    ///
    /// A corrupt sidecar no longer panics a decode-pool worker: the item
    /// is dropped, counted in `ndpipe_npe_stage_errors_total` (and
    /// [`PipelineStats::stage_errors`]), and every other photo still
    /// classifies.
    ///
    /// # Panics
    ///
    /// Panics if no model is installed.
    pub fn offline_inference_pipelined(
        &self,
        cfg: &EngineConfig,
    ) -> (Vec<(PhotoId, usize)>, PipelineStats) {
        let model = self.model.as_ref().expect("no model installed");
        let n_shard = self.shard.len().max(1);
        let photos = self.photos.snapshot();
        let (out, stats) = engine::run_pipeline_fallible(
            cfg,
            // Stage 1: fetch each photo's compressed sidecar.
            photos.into_iter().enumerate().map(|(i, stored)| {
                (
                    stored.photo.id,
                    stored.preproc_bytes,
                    stored.compressed_binary,
                    i,
                )
            }),
            // Stage 2: real DEFLATE inflation + integrity check, then
            // pick the classification input (photos and shard rows are
            // aligned by construction in `system`).
            |_, (id, preproc_bytes, compressed, i)| {
                let bin = deflate::decompress_framed(&compressed)
                    .map_err(|e| format!("photo {}: sidecar decompress failed: {e}", id.0))?;
                if bin.len() != preproc_bytes {
                    return Err(format!(
                        "photo {}: sidecar corrupted ({} != {} bytes)",
                        id.0,
                        bin.len(),
                        preproc_bytes
                    ));
                }
                Ok((id, self.shard.features().row(i % n_shard)))
            },
            // Stage 3: one batched forward, then a per-row argmax.
            |batch: Vec<(PhotoId, Tensor)>| {
                let (ids, rows): (Vec<PhotoId>, Vec<Tensor>) = batch.into_iter().unzip();
                let x = Tensor::stack_rows(&rows);
                let logits = model.forward(&x);
                ids.into_iter()
                    .enumerate()
                    .map(|(r, id)| (id, logits.row(r).argmax()))
                    .collect()
            },
        );
        self.record_npe(&stats);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpipe_data::photo::{preprocessed_binary, PhotoFactory};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shard(rng: &mut StdRng) -> LabeledDataset {
        let u = ndpipe_data::ClassUniverse::new(8, 4, 3, 0.2, rng);
        let rows: Vec<Tensor> = (0..9).map(|i| u.sample(i % 3, rng)).collect();
        let labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        LabeledDataset::new(rows, labels, 3)
    }

    fn model(rng: &mut StdRng) -> Mlp {
        Mlp::new(&[8, 12, 6, 3], 2, rng)
    }

    #[test]
    fn stores_photos_with_compressed_sidecars() {
        let mut rng = StdRng::seed_from_u64(41);
        let ps = PipeStore::new(0, shard(&mut rng));
        let mut factory = PhotoFactory::new(4096);
        for i in 0..3 {
            let p = factory.make(i, 0, &mut rng);
            let bin = preprocessed_binary(2048, &mut rng);
            ps.store_photo(p, bin);
        }
        assert_eq!(ps.photo_count(), 3);
        // Sidecars compress: stored bytes < raw preprocessed bytes.
        for p in ps.photos() {
            assert!(p.compressed_binary.len() < p.preproc_bytes);
        }
        let overhead = ps.sidecar_overhead().unwrap();
        assert!(overhead < 0.5, "overhead {overhead}");
    }

    #[test]
    fn feature_extraction_matches_model() {
        let mut rng = StdRng::seed_from_u64(42);
        let s = shard(&mut rng);
        let m = model(&mut rng);
        let mut ps = PipeStore::new(1, s.clone());
        ps.install_model(m.clone());
        let (feats, labels) = ps.extract_features(0..4);
        assert_eq!(feats.dims(), &[4, 6]);
        assert_eq!(labels, &s.labels()[0..4]);
        // Same computation as calling the model directly.
        let direct = m.features(&s.select(&[0, 1, 2, 3]).features().clone());
        assert_eq!(feats.data(), direct.data());
    }

    #[test]
    fn a_head_lands_only_on_its_own_prefix_and_keeps_the_cache() {
        let mut rng = StdRng::seed_from_u64(48);
        let held = model(&mut rng);
        let mut master = Mlp::from_bytes(&held.to_bytes()).expect("round trip");
        master.widen_classes(4, &mut rng);
        let head = || Mlp::from_bytes(&master.head_to_bytes()).expect("head blob");
        let digest = held.prefix_digest();
        let mut ps = PipeStore::new(0, shard(&mut rng));
        let refused = |ps: &mut PipeStore, d: u64, head: Mlp| ps.install_head(d, head).is_err();
        assert!(refused(&mut ps, digest, head()), "no model installed");

        ps.install_model(held.clone());
        let rows = 0..ps.shard_len();
        let cfg = EngineConfig::default();
        let (before, _) = ps.extract_features_batched(rows.clone(), &cfg);
        assert!(refused(&mut ps, digest ^ 1, head()), "another prefix");
        let wide = Mlp::new(&[7, 4], 0, &mut rng);
        assert!(
            refused(&mut ps, digest, wide),
            "not as wide as the features"
        );
        assert_eq!(ps.model().expect("installed").to_bytes(), held.to_bytes());

        ps.install_head(digest, head()).expect("same prefix");
        assert_eq!(ps.model().expect("installed").to_bytes(), master.to_bytes());
        assert_eq!(
            ps.model_snapshot().expect("published").to_bytes(),
            master.to_bytes()
        );
        let ((after, _), stats) = ps.extract_features_batched(rows, &cfg);
        assert_eq!(stats.batches, 0, "the prefix epoch and its cache stay");
        assert_eq!(after.data(), before.0.data());
    }

    #[test]
    fn offline_inference_returns_label_per_photo() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut ps = PipeStore::new(2, shard(&mut rng));
        ps.install_model(model(&mut rng));
        let mut factory = PhotoFactory::new(1024);
        for i in 0..5 {
            let p = factory.make(i % 3, 0, &mut rng);
            ps.store_photo(p, preprocessed_binary(512, &mut rng));
        }
        let labels = ps.offline_inference();
        assert_eq!(labels.len(), 5);
        assert!(labels.iter().all(|&(_, l)| l < 3));
    }

    #[test]
    fn pipelined_inference_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut ps = PipeStore::new(6, shard(&mut rng));
        ps.install_model(model(&mut rng));
        let mut factory = PhotoFactory::new(1024);
        for i in 0..37 {
            let p = factory.make(i % 3, 0, &mut rng);
            ps.store_photo(p, preprocessed_binary(512, &mut rng));
        }
        let serial = ps.offline_inference_serial();
        // Identical labels at every batch size and worker count — the
        // determinism the NDPIPE_THREADS knob promises.
        for (batch, workers) in [(1, 1), (3, 2), (8, 4), (128, 2)] {
            let cfg = EngineConfig {
                batch,
                decomp_workers: workers,
                queue_depth: 4,
            };
            let (out, stats) = ps.offline_inference_pipelined(&cfg);
            assert_eq!(out, serial, "batch={batch} workers={workers}");
            assert_eq!(stats.fe.items, 37);
            assert_eq!(stats.decode.items, 37);
            assert_eq!(stats.batches, 37usize.div_ceil(batch));
        }
        // The default path is the pipelined one.
        assert_eq!(ps.offline_inference(), serial);
    }

    #[test]
    fn corrupt_sidecar_is_dropped_counted_and_isolated() {
        telemetry::set_enabled(true);
        let mut rng = StdRng::seed_from_u64(50);
        let mut ps = PipeStore::new(9, shard(&mut rng));
        ps.install_model(model(&mut rng));
        let mut factory = PhotoFactory::new(1024);
        for i in 0..12 {
            let p = factory.make(i % 3, 0, &mut rng);
            ps.store_photo(p, preprocessed_binary(512, &mut rng));
        }
        let serial = ps.offline_inference_serial();

        // Clobber one photo's sidecar past recognition (frame magic gone).
        let victim = ps.photos()[5].photo.id;
        ps.with_photo_mut(victim, |p| p.compressed_binary.truncate(3))
            .expect("victim exists");

        let cfg = EngineConfig {
            batch: 4,
            decomp_workers: 2,
            queue_depth: 4,
        };
        let (out, stats) = ps.offline_inference_pipelined(&cfg);

        // The corrupt photo is dropped; every other photo still classifies
        // with results identical to the serial reference.
        let expect: Vec<(PhotoId, usize)> = serial
            .iter()
            .copied()
            .filter(|&(id, _)| id != victim)
            .collect();
        assert_eq!(out, expect);
        assert_eq!(stats.stage_errors, 1);
        assert_eq!(stats.fe.items, 11);
        let msg = stats.first_error.as_deref().expect("error recorded");
        assert!(
            msg.contains(&format!("photo {}", victim.0)),
            "error names the photo: {msg}"
        );

        // The drop is observable: the error counter reflects the run.
        let snap = ps.metrics().snapshot();
        assert_eq!(
            snap.counter_value("ndpipe_npe_stage_errors_total"),
            Some(1),
            "one dropped item counted"
        );
    }

    #[test]
    fn batched_extraction_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(48);
        let s = shard(&mut rng);
        let mut ps = PipeStore::new(7, s);
        ps.install_model(model(&mut rng));
        let (serial_f, serial_l) = ps.extract_features(0..9);
        for (batch, workers) in [(1, 1), (2, 3), (4, 2), (128, 1)] {
            let cfg = EngineConfig {
                batch,
                decomp_workers: workers,
                queue_depth: 2,
            };
            let ((f, l), stats) = ps.extract_features_batched(0..9, &cfg);
            assert_eq!(f.dims(), serial_f.dims());
            assert_eq!(f.data(), serial_f.data(), "batch={batch} workers={workers}");
            assert_eq!(l, serial_l);
            assert_eq!(stats.fe.items, 9);
        }
    }

    #[test]
    fn npe_activity_and_metrics_reflect_runs() {
        telemetry::set_enabled(true);
        let mut rng = StdRng::seed_from_u64(49);
        let mut ps = PipeStore::new(8, shard(&mut rng));
        ps.install_model(model(&mut rng));
        let mut factory = PhotoFactory::new(1024);
        for i in 0..10 {
            let p = factory.make(i % 3, 0, &mut rng);
            ps.store_photo(p, preprocessed_binary(512, &mut rng));
        }
        assert!(ps.last_pipeline_stats().is_none(), "no runs yet");

        let cfg = EngineConfig {
            batch: 4,
            decomp_workers: 2,
            queue_depth: 4,
        };
        let (_, stats) = ps.offline_inference_pipelined(&cfg);
        let _ = ps.extract_features_batched(0..9, &cfg);

        let last = ps.last_pipeline_stats().expect("a run happened");
        assert_eq!(last.fe.items, 9, "last run is the extraction");
        let acc = ps.npe_activity();
        assert_eq!(acc.runs, 2);
        assert_eq!(acc.items, stats.fe.items as u64 + 9);

        let snap = ps.metrics().snapshot();
        assert_eq!(snap.counter_value("ndpipe_store_photos_total"), Some(10));
        assert_eq!(
            snap.counter_value("ndpipe_npe_stage_items_total"),
            Some((stats.fe.items + 9) as u64 * 3),
            "items counted once per stage"
        );
        assert!(snap.find("ndpipe_npe_run_wall_seconds").is_some());
    }

    #[test]
    fn photo_records_roundtrip_and_dedupe() {
        let mut rng = StdRng::seed_from_u64(53);
        let ps = PipeStore::new(12, shard(&mut rng));
        let mut factory = PhotoFactory::new(512);
        let p = factory.make(1, 2, &mut rng);
        let id = p.id;
        ps.store_photo(p, preprocessed_binary(256, &mut rng));

        let rec = ps.photo_record(id).expect("record");
        assert_eq!(rec.id, id.0);
        assert_eq!(rec.class, 1);
        assert_eq!(rec.day, 2);
        assert_eq!(rec.preproc_bytes, 256);

        // A replica adopting the record stores identical bytes without
        // recompressing, and a duplicate put is a no-op.
        let replica = PipeStore::new(13, shard(&mut rng));
        assert!(replica.store_photo_record(rec.clone()));
        assert!(!replica.store_photo_record(rec.clone()), "dedupe on id");
        assert_eq!(replica.photo_count(), 1);
        let back = replica.photo_record(id).expect("replicated record");
        assert_eq!(back, rec);
        let stored = replica.photo(id).expect("stored");
        assert_eq!(
            deflate::decompress_framed(&stored.compressed_binary)
                .expect("sidecar decompresses")
                .len(),
            256
        );
        assert_eq!(replica.photo_ids(), vec![id.0]);
    }

    #[test]
    fn placement_installs_are_epoch_monotone() {
        let mut rng = StdRng::seed_from_u64(54);
        let ps = PipeStore::new(0, shard(&mut rng));
        assert!(ps.placement().is_none());
        let mut map = PlacementMap::new(&[0, 1, 2], 2).expect("map");
        assert_eq!(ps.install_placement(map.clone()), Ok(1));
        map.mark_down(1).expect("known");
        assert_eq!(ps.install_placement(map.clone()), Ok(2));
        // Re-installing the held epoch is idempotent; an older one is
        // refused with the held epoch.
        assert_eq!(ps.install_placement(map), Ok(2));
        let stale = PlacementMap::new(&[0, 1, 2], 2).expect("map");
        assert_eq!(ps.install_placement(stale), Err(2));
        assert_eq!(ps.placement().expect("held").epoch(), 2);
    }

    #[test]
    fn replica_shard_extraction_matches_the_owner() {
        let mut rng = StdRng::seed_from_u64(55);
        let owner_shard = shard(&mut rng);
        let m = model(&mut rng);
        let mut owner = PipeStore::new(1, owner_shard.clone());
        owner.install_model(m.clone());
        let cfg = EngineConfig::default();
        let ((want_f, want_l), _) = owner.extract_features_batched(0..owner_shard.len(), &cfg);

        let mut replica = PipeStore::new(2, shard(&mut rng));
        replica.install_model(m);
        assert!(
            replica
                .extract_features_batched_for(1, 0..1, &cfg)
                .is_none(),
            "no replica shard attached yet"
        );
        replica.add_replica_shard(1, owner_shard.clone());
        assert_eq!(replica.replica_nodes(), vec![1]);
        assert_eq!(replica.shard_for(2).expect("own shard").len(), 9);
        let ((f, l), _) = replica
            .extract_features_batched_for(1, 0..owner_shard.len(), &cfg)
            .expect("replica shard attached");
        assert_eq!(f.data(), want_f.data(), "reroute is bit-identical");
        assert_eq!(l, want_l);
    }

    #[test]
    fn photo_lookup() {
        let mut rng = StdRng::seed_from_u64(44);
        let ps = PipeStore::new(3, shard(&mut rng));
        let mut factory = PhotoFactory::new(256);
        let p = factory.make(0, 0, &mut rng);
        let id = p.id;
        ps.store_photo(p, preprocessed_binary(128, &mut rng));
        assert!(ps.photo(id).is_some());
        assert!(ps.photo(PhotoId(999)).is_none());
    }

    #[test]
    fn model_snapshots_cached_and_keyed_on_weight_version() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut ps = PipeStore::new(10, shard(&mut rng));
        assert!(ps.model_snapshot().is_none(), "no model, no snapshot");
        ps.install_model(model(&mut rng));
        let v1 = ps.model_version().expect("version");
        let s1 = ps.model_snapshot().expect("snapshot");
        let s2 = ps.model_snapshot().expect("snapshot");
        assert!(
            Arc::ptr_eq(&s1, &s2),
            "unchanged weights reuse the published Arc"
        );
        // Mutating the replica bumps the weight version; the next
        // snapshot must republish rather than serve stale weights.
        {
            let m = ps.model_mut().expect("model");
            let l = &mut m.classifier_layers_mut()[0];
            let (w, b) = (l.weights().clone(), l.bias().clone());
            l.set_weights(w, b);
        }
        let v2 = ps.model_version().expect("version");
        assert_ne!(v1, v2, "mutation bumps the version key");
        let s3 = ps.model_snapshot().expect("snapshot");
        assert!(!Arc::ptr_eq(&s1, &s3), "version change republishes");
        assert_eq!(s3.weights_version(), v2);
    }

    #[test]
    fn concurrent_ingest_lands_every_photo() {
        // `store_photo(&self)`: parallel writers into the sharded map
        // must not lose entries, and the snapshot keeps insertion order
        // per writer (global order across writers is interleaved).
        let mut rng = StdRng::seed_from_u64(52);
        let ps = std::sync::Arc::new(PipeStore::new(11, shard(&mut rng)));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let ps = std::sync::Arc::clone(&ps);
            joins.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                let mut factory = PhotoFactory::new(256);
                for i in 0..25 {
                    let p = factory.make((t as usize + i) % 3, 0, &mut rng);
                    ps.store_photo(p, preprocessed_binary(128, &mut rng));
                }
            }));
        }
        for j in joins {
            j.join().expect("writer");
        }
        assert_eq!(ps.photo_count(), 100);
        assert_eq!(ps.photos().len(), 100);
    }

    #[test]
    #[should_panic(expected = "no model installed")]
    fn extraction_requires_model() {
        let mut rng = StdRng::seed_from_u64(45);
        let ps = PipeStore::new(4, shard(&mut rng));
        let _ = ps.extract_features(0..1);
    }

    #[test]
    fn photos_persist_and_restore_through_the_object_store() {
        let mut rng = StdRng::seed_from_u64(46);
        let dir = std::env::temp_dir().join(format!(
            "ndpipe-ps-objstore-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                std::fs::remove_dir_all(&self.0).ok();
            }
        }
        let _c = Cleanup(dir.clone());

        let ps = PipeStore::new(5, shard(&mut rng));
        let mut factory = PhotoFactory::new(2048);
        for i in 0..4 {
            let p = factory.make(i % 3, 2, &mut rng);
            ps.store_photo(p, preprocessed_binary(1024, &mut rng));
        }
        {
            let mut os = objstore::ObjectStore::open(&dir, 1 << 20).expect("open");
            assert_eq!(ps.persist_photos(&mut os).expect("persist"), 4);
        }
        // A fresh PipeStore (e.g. after a server restart) restores them.
        let mut restored = PipeStore::new(5, shard(&mut rng));
        let mut os = objstore::ObjectStore::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(restored.restore_photos(&mut os).expect("restore"), 4);
        for (a, b) in ps.photos().into_iter().zip(restored.photos()) {
            assert_eq!(a.photo.id, b.photo.id);
            assert_eq!(a.photo.class, b.photo.class);
            assert_eq!(a.photo.day, b.photo.day);
            assert_eq!(a.photo.blob, b.photo.blob);
            assert_eq!(a.compressed_binary, b.compressed_binary);
            assert_eq!(a.preproc_bytes, b.preproc_bytes);
        }
    }
}
