//! DNN substrate for the NDPipe reproduction.
//!
//! Two halves, matching how the paper uses models:
//!
//! 1. **Architecture profiles** ([`profile`]) — stage-level descriptions of
//!    the five evaluation models (ShuffleNetV2, InceptionV3, ResNet50,
//!    ResNeXt101, ViT-B/16) carrying per-stage forward FLOPs, activation
//!    output sizes and parameter counts, plus the paper's per-PipeStore
//!    throughput anchors. APO's partition search (§5.3), the Fig 9 traffic
//!    sweep and every cluster-simulation experiment consume these.
//! 2. **Executable mini-models** ([`linear`], [`mlp`], [`trainer`]) — a
//!    from-scratch MLP stack with real forward/backward (SGD + momentum)
//!    that runs the accuracy experiments (Fig 4, Fig 17, Table 1/2) at
//!    laptop scale on the synthetic drifting datasets. Fine-tuning freezes
//!    the feature-extraction layers and trains the classifier tail exactly
//!    as FT-DMP prescribes; full training updates everything.
//!
//! [`convergence`] implements the δ-balance / deficiency-margin machinery
//! of the paper's §5.2 convergence analysis (Theorem 5.1, Lemma 5.2).

pub mod convergence;
pub mod linear;
pub mod mlp;
pub mod profile;
pub mod trainer;

pub use linear::Linear;
pub use mlp::Mlp;
pub use profile::{ModelProfile, StageProfile};
pub use trainer::{EvalMetrics, TrainConfig, Trainer};
