//! # goggles-endmodel
//!
//! Downstream ("end") models for the Table 2 experiments. The paper's
//! protocol (§5.1.4, §5.5): freeze the VGG-16 convolutional trunk, train
//! only fully-connected head layers — with the probabilistic labels emitted
//! by each labeling system as supervision, minimizing the **expected**
//! cross-entropy `E_{y∼ỹ}[ℓ(h(x), y)]` from §2.1 of the paper.
//!
//! * [`adam`] — the Adam optimizer (the paper trains "with the Adam
//!   optimizer with a learning rate of 10⁻³"),
//! * [`head`] — softmax-regression and one-hidden-layer MLP heads over
//!   frozen backbone features, trained on probabilistic labels,
//! * [`fsl`] — the few-shot Baseline++ comparison (Chen et al., ICLR 2019):
//!   a cosine-similarity classifier fit on only the development set,
//! * [`evaluate`] — feature standardization and the shared train/test
//!   protocol.

pub mod adam;
pub mod evaluate;
pub mod fsl;
pub mod head;

pub use adam::Adam;
pub use evaluate::{accuracy, one_hot_labels, standardize_fit, Standardizer};
pub use fsl::CosineClassifier;
pub use head::{MlpHead, SoftmaxHead, TrainConfig};
