//! # goggles
//!
//! Umbrella crate of the GOGGLES reproduction (Das et al., *GOGGLES:
//! Automatic Image Labeling with Affinity Coding*, SIGMOD 2020): re-exports
//! every subsystem and hosts the [`experiments`] harness that regenerates
//! all tables and figures of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```no_run
//! use goggles::prelude::*;
//!
//! // 1. Synthesize an unlabeled image task (stand-in for a real corpus).
//! let ds = generate(&TaskConfig::new(TaskKind::Surface, 40, 10, 7));
//! // 2. Label 5 images per class — the only supervision GOGGLES needs.
//! let dev = ds.sample_dev_set(5, 7);
//! // 3. Run affinity coding.
//! let goggles = Goggles::new(GogglesConfig::default());
//! let result = goggles.label_dataset(&ds, &dev).expect("pipeline failed");
//! println!("labeling accuracy = {:.1}%", 100.0 * result.accuracy_excluding_dev(&ds, &dev));
//! ```
//!
//! For **online** labeling — fit once, snapshot, then answer single-image
//! requests without refitting — see [`serve`] ([`goggles_serve`]) and the
//! `examples/serving.rs` demo. For labeling **over the network** (the
//! `goggles-served` TCP server, the `RemoteLabeler` client and the
//! transport-agnostic `Labeler` trait) see `examples/network.rs`.
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the table/figure reproduction harness.

pub use goggles_cnn as cnn;
pub use goggles_core as core;
pub use goggles_datasets as datasets;
pub use goggles_endmodel as endmodel;
pub use goggles_labelmodels as labelmodels;
pub use goggles_models as models;
pub use goggles_serve as serve;
pub use goggles_tensor as tensor;
pub use goggles_trainer as trainer;
pub use goggles_vision as vision;

pub mod experiments;

/// One-stop imports for typical usage.
pub mod prelude {
    pub use goggles_cnn::{Vgg16, VggConfig};
    pub use goggles_core::{
        AffinityMatrix, Goggles, GogglesConfig, LabelingResult, ProbabilisticLabels,
    };
    pub use goggles_datasets::{generate, Dataset, DevSet, TaskConfig, TaskKind};
    pub use goggles_endmodel::{CosineClassifier, MlpHead, SoftmaxHead, TrainConfig};
    pub use goggles_labelmodels::{LabelMatrix, SnorkelModel, Snuba, SnubaConfig};
    pub use goggles_models::{
        BernoulliMixture, DiagonalGmm, EmOptions, FullGmm, KMeans, SpectralCoclustering,
    };
    pub use goggles_serve::{
        FaultPlan, FittedLabeler, LabelResponse, LabelService, Labeler, RemoteLabeler, RetryPolicy,
        ServeConfig, ServerOptions, SnapshotRegistry, Ticket, WireServer,
    };
    pub use goggles_trainer::{RefitOutcome, Trainer, TrainerConfig, TrainerStatus};
    pub use goggles_vision::Image;
}
