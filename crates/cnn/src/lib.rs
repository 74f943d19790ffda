//! # goggles-cnn
//!
//! From-scratch CNN inference for the GOGGLES reproduction.
//!
//! The paper's affinity functions are defined over the filter maps produced
//! at the five max-pooling layers of an ImageNet-pretrained VGG-16 (§3).
//! Pretrained weights cannot be shipped in this offline reproduction, so this
//! crate implements the full **VGG-16 topology** (13 convolutions in 5 blocks,
//! each block closed by a 2×2 max-pool, then 3 fully-connected layers) with
//! **deterministic He-initialized surrogate weights** at a configurable width
//! multiple.
//!
//! Why a random-weight surrogate preserves the paper's behaviour: random
//! convolutional features act as a locality-sensitive projection — two image
//! patches that are similar in pixel space map to similar filter-map columns,
//! and dissimilar patches decorrelate. The affinity-coding premise only needs
//! *some* affinity functions to separate classes while many others are noise
//! (Example 2 of the paper), which is exactly the regime a random backbone
//! produces. DESIGN.md §2 records this substitution.
//!
//! ```
//! use goggles_cnn::{Vgg16, VggConfig};
//! use goggles_vision::Image;
//!
//! let net = Vgg16::new(&VggConfig::tiny(), 42);
//! let img = Image::filled(3, 32, 32, 0.5);
//! let taps = net.forward_pool_taps(&img);
//! assert_eq!(taps.len(), 5); // one filter map per max-pool layer
//! ```

pub mod layers;
pub mod vgg;

pub use layers::{with_thread_scratch, Conv2d, ConvScratch};
pub use vgg::{Vgg16, VggConfig};
