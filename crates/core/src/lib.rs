//! # goggles-core
//!
//! The GOGGLES system of *"GOGGLES: Automatic Image Labeling with Affinity
//! Coding"* (Das et al., SIGMOD 2020): a domain-agnostic pipeline that turns
//! a pile of unlabeled images plus a **tiny** development set (5 labels per
//! class) into probabilistic training labels.
//!
//! The pipeline has exactly the two steps of the paper's Figure 3:
//!
//! 1. **Affinity matrix construction** ([`affinity`], [`prototypes`]):
//!    every image is pushed through a frozen VGG-16; at each of the five
//!    max-pool layers the top-Z most-activated prototypes are extracted
//!    (Algorithm 1) and `α = 5·Z` affinity functions
//!    `f_L^z(x_i, x_j) = max_{h,w} cos(v_j^z, v_i^{(h,w)})` fill the
//!    `N × αN` affinity matrix.
//! 2. **Class inference** ([`hierarchical`], [`mapping`]): one
//!    diagonal-covariance GMM per affinity function (base models) feeds a
//!    one-hot concatenated label-prediction matrix into a multivariate
//!    Bernoulli mixture (ensemble model); the development set then picks the
//!    cluster→class mapping by maximizing `L_g` with an `O(K³)` assignment
//!    solver, with a probabilistic guarantee computable from [`theory`].
//!
//! ```no_run
//! use goggles_core::{Goggles, GogglesConfig};
//! use goggles_datasets::{generate, TaskConfig, TaskKind};
//!
//! let ds = generate(&TaskConfig::new(TaskKind::Surface, 40, 10, 7));
//! let dev = ds.sample_dev_set(5, 7);
//! let goggles = Goggles::new(GogglesConfig::default());
//! let result = goggles.label_dataset(&ds, &dev).expect("labeling failed");
//! println!("labeling accuracy: {:.2}%", 100.0 * result.accuracy_excluding_dev(&ds, &dev));
//! ```

pub mod affinity;
pub mod hierarchical;
pub mod mapping;
pub mod pipeline;
pub mod prototypes;
pub mod theory;

pub use affinity::{AffinityFunction, AffinityMatrix, PrototypeBank, ScoreDistribution};
pub use hierarchical::{fold_in_rows, HierarchicalModel, HierarchicalOptions};
pub use mapping::{apply_mapping, map_clusters_via_dev_set};
pub use pipeline::{
    translate_dev_to_rows, CorpusFit, Goggles, GogglesConfig, LabelingResult, ProbabilisticLabels,
    RefitSelection,
};
pub use prototypes::{EmbedScratch, ImageEmbedding, LayerEmbedding};

/// Errors surfaced by the GOGGLES pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GogglesError {
    /// Underlying model-fitting failure.
    Model(goggles_models::ModelError),
    /// Invalid input (description inside).
    InvalidInput(String),
}

impl std::fmt::Display for GogglesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GogglesError::Model(e) => write!(f, "model error: {e}"),
            GogglesError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for GogglesError {}

impl From<goggles_models::ModelError> for GogglesError {
    fn from(e: goggles_models::ModelError) -> Self {
        GogglesError::Model(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GogglesError>;
