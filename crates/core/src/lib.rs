//! # NDPipe — near-data fine-tuning and inference for photo storage
//!
//! Reproduction of *"NDPipe: Exploiting Near-data Processing for Scalable
//! Inference and Continuous Training in Photo Storage"* (ASPLOS 2024).
//!
//! NDPipe pushes DNN fine-tuning and offline inference into storage
//! servers ("PipeStores") equipped with commodity GPUs, coordinated by a
//! training server ("Tuner"). This crate implements the paper's four
//! pillars plus the end-to-end photo-storage system around them:
//!
//! - [`ftdmp`] — **FT-DMP**: fine-tuning-based data & model parallelism.
//!   Weight-freeze layers replicated across PipeStores (forward only, no
//!   synchronization), trainable classifier on the Tuner. Includes the
//!   pipelined `N_run` variant of §5.2.
//! - [`apo`] — **APO**: automated model partitioning & organization
//!   (Algorithm 1 + `FindBestPoint`), choosing the partition point and
//!   PipeStore count that balance the two pipeline stages.
//! - [`npe`] — **NPE**: the near-data processing engine. 3-stage
//!   pipelining (load / preprocess / FE&Cl), preprocessing offload,
//!   DEFLATE-compressed preprocessed binaries, batch enlargement — both
//!   as a capacity model (Fig 12) and as a *functional* path over real
//!   blobs and the real codec.
//! - [`checknrun`] — **Check-N-Run-style model distribution**: quantized,
//!   DEFLATE-compressed deltas of the fine-tuned layers instead of whole
//!   models (§5, up to 427× traffic reduction in the paper).
//! - [`pipestore`] / [`tuner`] — the two server roles, functional:
//!   PipeStores hold photo shards and extract features with the real
//!   mini-model forward pass (in parallel via crossbeam); the Tuner
//!   trains the classifier tail on shipped features.
//! - [`labeldb`] — the versioned label database that the *outdated label*
//!   problem lives in, plus offline-relabel bookkeeping (Table 1).
//! - [`system`] — the end-to-end facade: online inference on upload,
//!   offline inference on model refresh, continuous fine-tuning.
//! - [`experiment`] — reusable drivers for the paper's accuracy
//!   experiments (Fig 4, Fig 17, Tables 1–2) shared by benches, examples
//!   and tests.
//!
//! # Quickstart
//!
//! ```
//! use ndpipe::system::{NdPipeSystem, SystemConfig};
//! use ndpipe_data::DatasetSpec;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut system = NdPipeSystem::bootstrap(
//!     SystemConfig::small_test(),
//!     DatasetSpec::tiny(),
//!     &mut rng,
//! );
//! // Photos are already sharded across PipeStores; fine-tune near data.
//! let report = system.fine_tune(&mut rng);
//! assert!(report.final_accuracy.top1 > 0.0);
//! ```

pub mod apo;
pub mod checknrun;
pub mod experiment;
pub mod ftdmp;
pub mod labeldb;
pub mod npe;
pub mod online;
pub mod placement;
pub mod pipestore;
pub mod rpc;
pub mod sanitize;
pub mod system;
pub mod tuner;

pub use apo::{pareto_front, ApoInput, ApoResult, ParetoFront, ParetoInput, ParetoPoint};
pub use checknrun::ModelDelta;
pub use ftdmp::{ftdmp_fine_tune, FtdmpConfig, FtdmpError, FtdmpReport, ScheduleStats};
pub use labeldb::LabelDb;
pub use placement::{PlacementError, PlacementMap};
pub use pipestore::PipeStore;
pub use tuner::Tuner;
