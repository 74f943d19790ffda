//! # goggles-vision
//!
//! Image substrate for the GOGGLES reproduction.
//!
//! The paper evaluates on five real image corpora (CUB birds, GTSRB traffic
//! signs, industrial surface finishes, two chest X-ray sets) that cannot be
//! redistributed here. The dataset generators in `goggles-datasets` instead
//! synthesize images with the same *task structure*; this crate provides the
//! pieces those generators (and the HOG representation baseline of §5.1.5)
//! are built from:
//!
//! * [`Image`] — a `C×H×W` float image with pixel accessors,
//! * [`draw`] — shapes, stripes, glyph strokes and blobs placed at arbitrary
//!   positions (class evidence may appear anywhere in the frame, which is
//!   precisely why the paper's affinity functions take a spatial max),
//! * [`noise`] — value-noise textures, speckle and Gaussian pixel noise,
//! * [`filter`] — separable Gaussian blur, Sobel gradients, bilinear resize,
//! * [`hog`] — the Histogram-of-Oriented-Gradients descriptor used as a
//!   representation baseline in Table 1,
//! * [`io`] — netpbm (PPM/PGM) output so generated datasets can be
//!   inspected with any image viewer.

pub mod draw;
pub mod filter;
pub mod hog;
pub mod image;
pub mod io;
pub mod noise;

pub use hog::{hog_descriptor, HogParams};
pub use image::Image;
pub use io::{write_pnm, PnmError};
